"""Bitmask helpers.

Measurement paths are indexed ``0 .. |P|-1`` and the set of paths crossing a
node (``P(v)`` in the paper) is stored as a Python integer used as a bitmask.
Unions of path sets — ``P(U) = \\bigcup_{u in U} P(u)`` — are then plain
bitwise ORs, which keeps the exhaustive identifiability search fast even with
tens of thousands of paths.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence


#: ``bytes.translate`` tables between 0/1 bytes and the ASCII digits ``01``.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def mask_to_bytes(mask: int, width: int) -> bytes:
    """Spread ``mask`` into ``width`` bytes: byte ``i`` is bit ``i`` (0 or 1).

    One binary formatting of the big int plus two C-level byte passes, so
    the cost is O(width) with small constants however dense the mask is.
    Raises :class:`ValueError` when ``mask`` is negative or wider than
    ``width`` bits.

    >>> mask_to_bytes(0b1101, 5)
    b'\\x01\\x00\\x01\\x01\\x00'
    """
    if mask < 0 or mask.bit_length() > width:
        raise ValueError(f"mask does not fit in {width} non-negative bits")
    if not width:
        return b""
    return format(mask, f"0{width}b")[::-1].encode("ascii").translate(_FROM_DIGITS)


def mask_from_bytes(row) -> int:
    """Pack a row of 0/1 bytes (byte ``i`` is bit ``i``) into a bitmask.

    The inverse of :func:`mask_to_bytes`: the row is reversed, mapped to
    ASCII digits and parsed once by ``int(..., 2)``, which is linear in the
    row length.  Accepts ``bytes`` and ``bytearray``.

    >>> bin(mask_from_bytes(b"\\x01\\x00\\x01\\x01"))
    '0b1101'
    """
    if not row:
        return 0
    return int(row[::-1].translate(_TO_DIGITS), 2)


def mask_from_indices(indices: Iterable[int]) -> int:
    """Build a bitmask with the given bit positions set.

    Indices may come in any order, repeat, or arrive from a generator.  Each
    one sets a single byte of a 0/1 ``bytearray`` (one byte per bit
    position); the row is packed into an integer once by
    :func:`mask_from_bytes`.  No big-int is rebuilt per index, so the cost
    is O(len(indices) + max(indices)).

    >>> bin(mask_from_indices([0, 2, 3]))
    '0b1101'
    """
    items = indices if isinstance(indices, list) else list(indices)
    if not items:
        return 0
    low = min(items)
    if low < 0:
        raise ValueError(f"bit index must be non-negative, got {low}")
    row = bytearray(max(items) + 1)
    for index in items:
        row[index] = 1
    return mask_from_bytes(row)


def union_masks(masks: Iterable[int]) -> int:
    """Bitwise OR of an iterable of masks (the union of the path sets)."""
    result = 0
    for mask in masks:
        result |= mask
    return result


def bit_count(mask: int) -> int:
    """Number of set bits (size of the represented path set)."""
    return mask.bit_count()


def bits_of(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order.

    Jumps from set bit to set bit via the lowest-set-bit identity
    ``mask & -mask`` instead of scanning every bit position, so the cost is
    proportional to the *popcount* of the mask rather than to its width —
    sparse masks over huge path universes iterate in a handful of steps.

    >>> list(bits_of(0b1101))
    [0, 2, 3]
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: ``byte -> ascending bit offsets`` lookup used by :func:`bit_indices`.
_BYTE_BITS = tuple(
    tuple(offset for offset in range(8) if byte >> offset & 1)
    for byte in range(256)
)


def bit_indices(mask: int) -> list:
    """The indices of the set bits of ``mask``, as an ascending list.

    The eager, dense-mask counterpart of :func:`bits_of`: the mask is
    exported to bytes once and each non-zero byte is expanded through a
    256-entry lookup table, so the cost is O(width/8 + popcount) with small
    constants — :func:`bits_of`'s lowest-set-bit walk costs a full-width
    big-int operation *per set bit*, which dominates when masks are dense
    (the path-index remaps of the routing delta code are the heavy
    consumers).
    """
    if mask < 0:
        raise ValueError("mask must be non-negative")
    indices: list = []
    if not mask:
        return indices
    table = _BYTE_BITS
    for position, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) >> 3, "little")):
        if byte:
            base = position << 3
            indices.extend(base + offset for offset in table[byte])
    return indices


def masks_from_paths(nodes: Sequence, paths: Sequence[Sequence]) -> dict:
    """Build the ``node -> P(v)`` bitmask table from an indexed path family.

    Path ``i`` contributes bit ``i`` to the mask of every node it touches.
    The incidence is first accumulated as one ascending index list per node
    and each big-int mask is then built once by :func:`mask_from_indices` —
    a node crossed by k paths costs k list appends plus a single O(width)
    conversion, instead of k big-int ORs of O(width) each.

    Raises :class:`ValueError` when a path touches a node outside ``nodes``;
    the routing layer re-raises that as a :class:`~repro.exceptions.RoutingError`.
    This is the single mask-construction primitive shared by
    :class:`repro.routing.paths.PathSet` and the signature engine.
    """
    index_lists: dict = {node: [] for node in nodes}
    for index, path in enumerate(paths):
        for node in set(path):
            indices = index_lists.get(node)
            if indices is None:
                raise ValueError(
                    f"path {index} touches {node!r} which is outside the node universe"
                )
            indices.append(index)
    return {node: mask_from_indices(indices) for node, indices in index_lists.items()}


def masks_for_nodes(
    node_order: Sequence, membership: Mapping, universe_size: int
) -> Mapping:
    """Utility used in tests: build ``node -> mask`` from ``node -> iterable``.

    ``membership[node]`` must be an iterable of path indices smaller than
    ``universe_size``.
    """
    result = {}
    for node in node_order:
        indices = list(membership.get(node, ()))
        for index in indices:
            if index >= universe_size:
                raise ValueError(
                    f"path index {index} out of range for universe of size {universe_size}"
                )
        result[node] = mask_from_indices(indices)
    return result
