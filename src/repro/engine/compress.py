"""Signature-universe compression: duplicate path columns carry no information.

The engine's data is the node×path incidence matrix: row ``v`` is the bitmask
``P(v)`` and column ``j`` is the *touch-set* of path ``j`` (the nodes the path
crosses).  Every identifiability query the engine answers — equality of
``P(U)`` and ``P(W)``, the subset-dominance test ``P(u) ⊆ P(U∖{u})``, unions
along the subset DFS — is a Boolean-lattice query over rows, and the runtime
of each primitive scales with the *bit-width* of the rows.  This module
shrinks that width by collapsing duplicate columns.

Soundness of the collapse
-------------------------

Let ``c : {0..|P|-1} → {0..m-1}`` map each path column to its duplicate class
(two columns are in one class iff their touch-sets are equal; all-zero
columns — paths touching no node of the universe — are dropped entirely).
Write ``φ(S)`` for the compressed image of a path set ``S``: bit ``k`` of
``φ(S)`` is set iff some column of class ``k`` is in ``S``.

Every mask the engine ever manipulates is a union ``P(U)`` of node rows, and
node rows are *class-closed*: if path ``j`` crosses ``v`` then every duplicate
of ``j`` crosses ``v`` too (equal touch-sets!), so ``P(U)`` contains either
all columns of a class or none of them.  On class-closed sets ``φ`` is a
bijection onto the compressed lattice that commutes with union, and therefore
preserves equality and inclusion in both directions::

    P(U) = P(W)  ⇔  φ(P(U)) = φ(P(W))
    P(U) ⊆ P(W)  ⇔  φ(P(U)) ⊆ φ(P(W))
    φ(P(U) ∪ P(W)) = φ(P(U)) ∪ φ(P(W))

Since the µ search, ``iter_subset_signatures``, the separability tables and
the equivalence-class fast path are compositions of exactly these three
primitives over node rows, running them on the compressed rows takes the
*same branches* in the same order and yields bit-identical results — µ,
witnesses, ``searched_up_to``, exhaustion — at a fraction of the per-union
cost.  (Gale duality offers the same picture: the paths form a point
configuration and repeated points add nothing to its oriented-matroid data.)

Finding the classes
-------------------

:class:`ColumnClasses` spreads every row mask into one 0/1 byte per path and
joins the rows element-major, so the exact touch pattern of column ``j`` is
the strided slice ``matrix[j::|P|]`` — one C-level slice per column, with
the slices themselves as dictionary keys.  Keys in first-appearance order
number the classes by smallest member.  When every column is its own class
(the common case on grids and link universes) the engine stops there and
keeps the original masks; otherwise the class keys are joined class-major
and each compressed row is again one strided slice, packed into an integer
once.  No step rebuilds a big int per incidence entry.

The one engine output phrased in path indices — the Boolean measurement
vector of Equation (1) — is mapped back through :meth:`CompressionPlan.expand_indices`,
so callers keep seeing original path indices; the plan records the full
``class_of`` index remap and per-class ``multiplicity`` for that purpose.
In the other direction, :meth:`CompressionPlan.fold_observations` folds an
observed vector onto the classes so the localiser runs on compressed rows
too; an observation that is not class-closed has no explanation.

Compression is on by default.  :func:`select_compression` /
:func:`compression_policy` mirror the backend-policy API so benchmarks, the
CLI runner (``--no-compress``) and parity tests can scope the raw behaviour.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro._typing import Node
from repro.exceptions import IdentifiabilityError
from repro.utils.bitset import (
    bit_indices,
    bits_of,
    mask_from_bytes,
    mask_from_indices,
    mask_to_bytes,
)

_compression_enabled = True


def compression_enabled() -> bool:
    """Whether engines built without an explicit ``compress=`` collapse
    duplicate columns (the default)."""
    return _compression_enabled


def _install_compression(enabled: bool) -> bool:
    """Install the compression policy without a deprecation warning
    (internal setter for :func:`compression_policy` and the pool workers)."""
    global _compression_enabled
    _compression_enabled = bool(enabled)
    return _compression_enabled


def select_compression(enabled: Optional[bool] = None) -> bool:
    """Get or set the global compression policy.

    With no argument, returns the current policy (no warning); with a
    boolean, installs it for every engine built without an explicit
    ``compress=`` argument and returns the new value.  The counterpart of
    :func:`repro.engine.backends.select_backend` for the compression axis.

    .. deprecated::
        Setting the global policy is deprecated in favour of the spec-scoped
        engine configuration — pass ``EngineConfig(compress=...)`` into a
        :class:`repro.Scenario` (or the ``compress=`` parameter of the
        pathset-level functions).  Behaviour is unchanged while it lives.
    """
    if enabled is None:
        return _compression_enabled
    warnings.warn(
        "select_compression(enabled) mutates process-global state; prefer "
        "the spec-scoped repro.EngineConfig(compress=...) on a "
        "repro.Scenario, or the scoped compression_policy() context manager",
        DeprecationWarning,
        stacklevel=2,
    )
    return _install_compression(enabled)


@contextlib.contextmanager
def compression_policy(enabled: Optional[bool] = None) -> Iterator[bool]:
    """Scope a compression-policy change to a ``with`` block.

    ``None`` leaves the policy untouched (the block still restores whatever
    was in effect on entry, so nesting is safe)::

        with compression_policy(False):
            ...  # every default-built engine here runs on raw columns
    """
    previous = _compression_enabled
    try:
        if enabled is not None:
            _install_compression(enabled)
        yield _compression_enabled
    finally:
        _install_compression(previous)


@dataclass(frozen=True)
class CompressionPlan:
    """The recorded mapping between original and compressed path columns.

    Attributes
    ----------
    n_original:
        ``|P|``, the width of the uncompressed signature universe.
    members:
        ``members[k]`` is the ascending tuple of original path indices whose
        columns were collapsed into compressed column ``k``.  Classes are
        ordered by their smallest original index, so representative order is
        stable and independent of node iteration order.
    """

    n_original: int
    members: Tuple[Tuple[int, ...], ...]

    @property
    def n_compressed(self) -> int:
        """Width of the compressed universe (number of distinct columns)."""
        return len(self.members)

    @property
    def is_identity(self) -> bool:
        """True when no column was dropped or merged (nothing to gain)."""
        return self.n_compressed == self.n_original

    @cached_property
    def multiplicity(self) -> Tuple[int, ...]:
        """``multiplicity[k]``: how many original columns class ``k`` absorbed."""
        return tuple(len(group) for group in self.members)

    @cached_property
    def representatives(self) -> Tuple[int, ...]:
        """The smallest original index of each compressed column."""
        return tuple(group[0] for group in self.members)

    @cached_property
    def class_of(self) -> Mapping[int, int]:
        """The index remap ``original path index -> compressed column``.

        Dropped (all-zero) columns are absent from the mapping.
        """
        return {
            original_index: compressed_index
            for compressed_index, group in enumerate(self.members)
            for original_index in group
        }

    @cached_property
    def _class_masks(self) -> Tuple[int, ...]:
        """Original-space bitmask of each compressed column's members."""
        return tuple(mask_from_indices(list(group)) for group in self.members)

    @cached_property
    def _fold_index(self) -> Tuple[int, ...]:
        """Compressed column of every original column; dropped (all-zero)
        columns map to the sentinel ``n_compressed``."""
        index = [self.n_compressed] * self.n_original
        for compressed_index, group in enumerate(self.members):
            for original_index in group:
                index[original_index] = compressed_index
        return tuple(index)

    # -- mask translation ---------------------------------------------------
    def compress_mask(self, mask: int) -> int:
        """Map an original-space path mask into the compressed space.

        Only class-closed masks (unions of node rows) round-trip exactly;
        those are the only masks the engine ever builds.
        """
        class_of = self.class_of
        n_original = self.n_original
        compressed_indices = set()
        for index in bit_indices(mask):
            if index >= n_original:
                raise IdentifiabilityError(
                    f"path index {index} out of range for a universe of width "
                    f"{n_original}"
                )
            compressed_index = class_of.get(index)
            if compressed_index is not None:
                compressed_indices.add(compressed_index)
        return mask_from_indices(compressed_indices)

    def expand_mask(self, compressed_mask: int) -> int:
        """Map a compressed-space mask back to original path indices."""
        expanded = 0
        class_masks = self._class_masks
        for index in bits_of(compressed_mask):
            if index >= self.n_compressed:
                raise IdentifiabilityError(
                    f"compressed column {index} out of range for "
                    f"{self.n_compressed} classes"
                )
            expanded |= class_masks[index]
        return expanded

    def expand_indices(self, compressed_bits: Iterable[int]) -> Tuple[int, ...]:
        """Original path indices of a compressed bit iterable, ascending."""
        indices: List[int] = []
        for index in compressed_bits:
            indices.extend(self.members[index])
        indices.sort()
        return tuple(indices)

    def expand_indicator(self, compressed_bits: Iterable[int]) -> Tuple[int, ...]:
        """The original-width 0/1 vector of a compressed bit iterable."""
        vector = [0] * self.n_original
        for index in compressed_bits:
            for original_index in self.members[index]:
                vector[original_index] = 1
        return tuple(vector)

    def fold_observations(self, observations: bytes) -> Optional[bytes]:
        """Fold a 0/1 observation vector over the original paths onto the
        compressed columns.

        ``observations`` holds one byte (0 or 1) per original path.  Returns
        one byte per class, or ``None`` when no element set explains the
        observations: the members of a class disagree (equal touch-sets are
        hit by exactly the same elements), or a dropped all-zero column
        reports a failure (no element crosses it).  Both checks are one
        C-level gather and one comparison over the original width.
        """
        folded = bytes(map(observations.__getitem__, self.representatives))
        padded = folded + b"\x00"
        if bytes(map(padded.__getitem__, self._fold_index)) != observations:
            return None
        return folded

    def describe(self) -> str:
        """One-line summary used by benchmarks and ``SignatureEngine.describe``."""
        dropped = self.n_original - sum(self.multiplicity)
        return (
            f"CompressionPlan({self.n_original} -> {self.n_compressed} columns, "
            f"{dropped} dropped, ratio="
            f"{self.n_original / self.n_compressed if self.n_compressed else 1.0:.2f})"
        )


class ColumnClasses:
    """The exact duplicate-column classes of a ``node -> P(v)`` mask table.

    Each mask is spread into a row of 0/1 bytes (:func:`mask_to_bytes`) and
    the rows are concatenated element-major, so column ``j`` — the touch
    pattern of path ``j``, one byte per element — is the strided slice
    ``matrix[j::n_paths]``.  Those slices are the class keys themselves,
    not hashes of them: one C-level slice per column replaces a per-entry
    transpose.  :attr:`is_identity` is answered from the distinct keys
    alone, so an engine over a universe without duplicate or all-zero
    columns builds no plan, no rows and no touch keys; :meth:`compress`
    does the rest only when something merges or drops.

    Raises :class:`~repro.exceptions.IdentifiabilityError` when a mask is
    negative or wider than ``n_paths`` bits.
    """

    __slots__ = ("nodes", "n_paths", "_columns", "_keys")

    def __init__(
        self, nodes: Sequence[Node], node_masks: Mapping[Node, int], n_paths: int
    ) -> None:
        self.nodes = tuple(nodes)
        self.n_paths = n_paths
        rows = []
        for node in self.nodes:
            mask = node_masks[node]
            try:
                rows.append(mask_to_bytes(mask, n_paths))
            except ValueError:
                raise IdentifiabilityError(
                    f"mask of {node!r} is wider than the declared universe "
                    f"({mask.bit_length()} > {n_paths} bits)"
                ) from None
        matrix = b"".join(rows)
        self._columns = [matrix[column::n_paths] for column in range(n_paths)]
        # Distinct touch patterns in first-appearance order; the all-zero
        # pattern (a path touching no element) constrains nothing.
        self._keys = dict.fromkeys(self._columns)
        self._keys.pop(bytes(len(self.nodes)), None)

    @property
    def is_identity(self) -> bool:
        """True when every column is its own class (nothing merges or drops)."""
        return len(self._keys) == self.n_paths

    def compress(self) -> Tuple[CompressionPlan, Dict[Node, int]]:
        """The :class:`CompressionPlan` and the compressed mask table."""
        groups: Dict[bytes, List[int]] = {key: [] for key in self._keys}
        for column, key in enumerate(self._columns):
            group = groups.get(key)
            if group is not None:
                group.append(column)
        n_elements = len(self.nodes)
        # Class-major concatenation of the keys: the compressed row of the
        # element at position p is again one strided slice.
        class_matrix = b"".join(groups)
        plan = CompressionPlan(
            n_original=self.n_paths,
            members=tuple(tuple(group) for group in groups.values()),
        )
        rows = {
            node: mask_from_bytes(class_matrix[position::n_elements])
            for position, node in enumerate(self.nodes)
        }
        return plan, rows


def compress_universe(
    nodes: Sequence[Node], node_masks: Mapping[Node, int], n_paths: int
) -> Tuple[CompressionPlan, Dict[Node, int]]:
    """Collapse duplicate path columns of a ``node -> P(v)`` mask table.

    Returns the :class:`CompressionPlan` and the compressed mask table over
    ``plan.n_compressed`` columns.  Columns are classed by their exact touch
    patterns (see :class:`ColumnClasses`): classes are numbered in order of
    their smallest member, all-zero columns are dropped, and each compressed
    row is packed once from the class keys — O(elements × paths) byte work
    in C, no big int rebuilt per incidence entry.
    """
    return ColumnClasses(nodes, node_masks, n_paths).compress()
