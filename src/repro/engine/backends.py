"""Interchangeable signature backends for the :class:`SignatureEngine`.

A *signature* is the set of measurement paths touched by a node set —
``P(U)`` in the paper — and every identifiability query reduces to unions,
equality tests and subset tests over signatures.  Two representations are
provided behind one interface:

* :class:`PythonBackend` — a signature is a Python big integer used as a
  bitmask (bit ``i`` set iff path ``i`` is touched).  No dependencies, fast
  for small-to-medium path universes thanks to CPython's int ops.
* :class:`NumpyBackend` — a signature is a read-only ``uint64`` array of
  ``ceil(|P| / 64)`` words; unions and subset tests are vectorized bitwise
  kernels and hashable keys are raw ``bytes``.  Preferable once ``|P|`` is
  large enough that big-int hashing/allocation dominates.

Backend selection
-----------------

:func:`resolve_backend` turns a backend spec (``None``, a name, or an
instance) into a concrete backend.  ``None`` defers to the module-level
policy set via :func:`select_backend`:

* ``"auto"`` (the default) — numpy when it is importable **and** the path
  universe has at least :data:`NUMPY_MIN_PATHS` paths, python otherwise;
* ``"python"`` / ``"numpy"`` — force one backend for every engine.

``select_backend("numpy")`` raises when numpy is not installed; the library
never hard-requires numpy.
"""

from __future__ import annotations

import abc
import bisect
import contextlib
import functools
import itertools
import math
import warnings
from typing import Any, Iterator, List, Optional, Tuple, Union

from repro.exceptions import IdentifiabilityError
from repro.utils.bitset import bits_of

try:  # numpy is an optional dependency; the python backend always works.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

#: "auto" switches to the numpy backend at this many measurement paths.
#:
#: The crossover is where numpy's fixed per-op call overhead is repaid by
#: word-parallel unions: below it CPython big-int ops win outright
#: (``benchmarks/bench_backend_crossover.py`` records the sweep this value
#: was calibrated against).  It is read at resolution time, so tests (and
#: unusual deployments) can override it by assigning
#: ``repro.engine.backends.NUMPY_MIN_PATHS`` — note that the re-export in
#: :mod:`repro.engine` is a copied value; patch *this* module's attribute.
NUMPY_MIN_PATHS = 256

_POLICIES = ("auto", "python", "numpy")

_policy = "auto"


def numpy_available() -> bool:
    """Whether the numpy backend can be constructed in this environment."""
    return _np is not None


def available_backends() -> Tuple[str, ...]:
    """Names of the backends constructible in this environment."""
    return ("python", "numpy") if numpy_available() else ("python",)


def _install_policy(name: str) -> str:
    """Install a backend policy without a deprecation warning.

    Internal setter used by :func:`backend_policy` and the pool-worker
    initializer; user code should carry an explicit
    :class:`repro.api.spec.EngineConfig` instead of mutating the global.
    """
    global _policy
    normalised = str(name).strip().lower()
    if normalised not in _POLICIES:
        raise IdentifiabilityError(
            f"unknown backend policy {name!r}; expected one of {_POLICIES}"
        )
    if normalised == "numpy" and not numpy_available():
        raise IdentifiabilityError(
            "the numpy backend was requested but numpy is not installed"
        )
    _policy = normalised
    return _policy


def select_backend(name: Optional[str] = None) -> str:
    """Get or set the global backend policy.

    With no argument, returns the current policy (no warning).  With
    ``"auto"``, ``"python"`` or ``"numpy"``, installs that policy for every
    engine built without an explicit backend and returns it.

    .. deprecated::
        Setting the global policy is deprecated in favour of the spec-scoped
        engine configuration — pass
        ``EngineConfig(backend=...)`` into a :class:`repro.Scenario` (or the
        ``backend=`` parameter of the pathset-level functions).  The global
        setter remains bit-identical in behaviour while it lives.
    """
    if name is None:
        return _policy
    warnings.warn(
        "select_backend(name) mutates process-global state; prefer the "
        "spec-scoped repro.EngineConfig(backend=...) on a repro.Scenario, "
        "or the scoped backend_policy() context manager",
        DeprecationWarning,
        stacklevel=2,
    )
    return _install_policy(name)


@contextlib.contextmanager
def backend_policy(name: Optional[str] = None) -> Iterator[str]:
    """Scope a backend-policy change to a ``with`` block.

    Installs ``name`` (when not ``None``) via :func:`select_backend` and
    restores the previous policy on exit, so library callers — the CLI
    runner's ``--backend`` flag in particular — never leak a policy change
    into the host process::

        with backend_policy("python") as policy:
            ...  # every engine built here uses big-int masks

    Yields the policy in effect inside the block.
    """
    previous = _policy
    try:
        if name is not None:
            _install_policy(name)
        yield _policy
    finally:
        _install_policy(previous)


# -- the lexicographic combination frontier -----------------------------------
#
# The block kernel addresses the size-``s`` subsets of ``range(n)`` by their
# lexicographic rank, so a chunk is a rank interval and a shard's first-index
# block is one too.  Ranks convert to index rows through the combinatorial
# number system: with ``x_d = n - 1 - c_d``, the rank-``r`` combination
# ``c_0 < ... < c_{s-1}`` is the unique one whose ``x_d`` greedily decompose
# ``C(n, s) - 1 - r`` as ``sum C(x_d, s - d)``.


def unrank_combination(n: int, size: int, rank: int) -> Tuple[int, ...]:
    """The rank-``rank`` size-``size`` combination of ``range(n)`` in
    lexicographic (``itertools.combinations``) order."""
    remaining = math.comb(n, size) - 1 - rank
    indices = []
    bound = n
    for k in range(size, 0, -1):
        # The largest x below the previous one with C(x, k) <= remaining.
        x = bisect.bisect_right(
            range(bound), remaining, key=lambda y, k=k: math.comb(y, k)
        ) - 1
        remaining -= math.comb(x, k)
        indices.append(n - 1 - x)
        bound = x
    return tuple(indices)


@functools.lru_cache(maxsize=8)
def _combination_arrays(n: int, size: int) -> Tuple[Any, ...]:
    """Read-only ``arrays[k][x] = min(C(x, k), C(n, size))`` for
    ``k <= size`` and ``x < n``: ``int64`` while ``C(n, size)`` fits, Python
    ints (``object``) beyond that.  Clipping at ``C(n, size)`` keeps the
    greedy decomposition exact (no remainder reaches the cap) and every
    entry in range."""
    cap = math.comb(n, size)
    dtype = _np.int64 if cap < 2**63 else object
    row = [1] * n
    arrays = []
    for k in range(size + 1):
        if k:
            # Hockey stick: C(x, k) = sum of C(y, k - 1) over y < x.
            row = [
                min(value, cap)
                for value in itertools.accumulate(row[:-1], initial=0)
            ]
        array = _np.array(row, dtype=dtype)
        array.setflags(write=False)
        arrays.append(array)
    return tuple(arrays)


def _combination_rows(n: int, size: int, start: int, stop: int):
    """Ranks ``[start, stop)`` of the lexicographic size-``size`` frontier as
    a ``(stop - start, size)`` index array: one ``searchsorted`` per column."""
    table = _combination_arrays(n, size)
    remaining = (math.comb(n, size) - 1 - start) - _np.arange(
        stop - start, dtype=table[1].dtype
    )
    rows = _np.empty((stop - start, size), dtype=_np.intp)
    for column in range(size):
        row = table[size - column]
        x = _np.searchsorted(row, remaining, side="right") - 1
        rows[:, column] = (n - 1) - x
        remaining -= row[x]
    return rows


class FrontierBlock:
    """One evaluated chunk of the combination frontier.

    ``start`` is the lexicographic rank of the chunk's first row, ``unions``
    and ``digests`` hold one entry per row, and ``first_dominated`` is the
    first row whose last element's signature lies inside the union of the
    others (``-1`` when no row's does).  :meth:`subsets` materialises the
    index tuples on demand — a consumer that only needs digests never pays
    for them.
    """

    __slots__ = ("start", "rows", "unions", "digests", "first_dominated")

    def __init__(
        self,
        start: int,
        rows: Any,
        unions: Any,
        digests: List[int],
        first_dominated: int,
    ) -> None:
        self.start = start
        self.rows = rows
        self.unions = unions
        self.digests = digests
        self.first_dominated = first_dominated

    def subsets(self) -> List[Tuple[int, ...]]:
        """The chunk's index tuples, in rank order."""
        rows = self.rows
        if isinstance(rows, list):
            return rows
        return list(map(tuple, rows.tolist()))


class SignatureBackend(abc.ABC):
    """Operations on packed path-set signatures.

    Signatures are opaque to callers: build them with :meth:`pack`, combine
    with :meth:`union`, and use :meth:`key` whenever a hashable/equatable
    representative is needed (two signatures are equal iff their keys are).
    """

    name: str = "abstract"

    def __init__(self, n_paths: int) -> None:
        if n_paths < 0:
            raise IdentifiabilityError(f"n_paths must be >= 0, got {n_paths}")
        self.n_paths = n_paths

    @abc.abstractmethod
    def pack(self, mask: int):
        """Pack a Python big-int bitmask into this backend's representation."""

    @abc.abstractmethod
    def empty(self):
        """The signature of the empty node set (no paths touched)."""

    @abc.abstractmethod
    def union(self, first, second):
        """``P(U) ∪ P(W)`` — a new signature; operands are never mutated."""

    @abc.abstractmethod
    def key(self, signature):
        """A hashable key; equal keys iff equal signatures."""

    @abc.abstractmethod
    def is_subset(self, first, second) -> bool:
        """Whether ``first ⊆ second`` as path sets (dominance test)."""

    @abc.abstractmethod
    def is_empty(self, signature) -> bool:
        """Whether the signature touches no path."""

    @abc.abstractmethod
    def bits(self, signature) -> Iterator[int]:
        """The indices of the touched paths, in increasing order."""

    @abc.abstractmethod
    def to_int(self, signature) -> int:
        """The signature as a Python big-int bitmask (inverse of :meth:`pack`)."""

    @abc.abstractmethod
    def indicator_vector(self, signature) -> Tuple[int, ...]:
        """The 0/1 vector of length ``n_paths`` (the Boolean measurement)."""

    # -- batched block ops ---------------------------------------------------
    #
    # The block kernel evaluates the lexicographic combination frontier in
    # chunks of consecutive ranks: ``stack`` packs the element signatures
    # into a single block operand once, then each chunk is one
    # ``block_frontier`` call — the chunk's index rows, their unions, the
    # first row dominated by its prefix and the row digests (exact-verified
    # by the engine on a match).  The defaults below are a pure-python
    # fallback built on the scalar ops, so ``kernel="block"`` is legal on any
    # backend; vectorized backends override ``block_frontier`` and
    # ``block_digests``.

    #: Whether the batched ops are truly vectorized (``kernel="auto"`` only
    #: engages the block kernel when they are).
    vectorized_blocks: bool = False

    def stack(self, signatures):
        """Pack signatures into a block operand, one row per signature.

        Rows must be addressable as ``stacked[i]`` yielding a signature
        interchangeable with the scalar ops.
        """
        return list(signatures)

    def block_scan(self, matrix, prefixes, spans):
        """Evaluate candidate rows against per-run prefix unions.

        ``matrix`` is :meth:`stack` of the element signatures, ``prefixes``
        is :meth:`stack` of one prefix union per run, and ``spans`` is a
        list of ``(prefix_row, lo, hi)`` triples: rows ``matrix[lo:hi]`` are
        each evaluated against ``prefixes[prefix_row]``, spans concatenated
        in order.  Returns ``(unions, dominated)`` over the concatenated
        rows, where ``unions[j]`` is a signature interchangeable with the
        scalar ops and ``dominated[j]`` is true iff the row is a subset of
        its prefix.
        """
        union, is_subset = self.union, self.is_subset
        unions = []
        dominated = []
        for prefix_row, lo, hi in spans:
            prefix = prefixes[prefix_row]
            for row in matrix[lo:hi]:
                unions.append(union(prefix, row))
                dominated.append(is_subset(row, prefix))
        return unions, dominated

    def block_frontier(
        self, matrix, size: int, start: int, stop: int
    ) -> FrontierBlock:
        """Evaluate ranks ``[start, stop)`` of the lexicographic size-``size``
        combination frontier over the rows of ``matrix``.

        This fallback unranks the chunk's combinations in Python, groups
        them into runs sharing their first ``size - 1`` indices (one prefix
        union per run) and evaluates the runs with one :meth:`block_scan`.
        """
        n = len(matrix)
        rows = [unrank_combination(n, size, rank) for rank in range(start, stop)]
        union, empty = self.union, self.empty
        prefixes = []
        spans = []
        for head, run in itertools.groupby(rows, key=lambda row: row[:-1]):
            lasts = [row[-1] for row in run]
            prefix = empty()
            for index in head:
                prefix = union(prefix, matrix[index])
            prefixes.append(prefix)
            spans.append((len(prefixes) - 1, lasts[0], lasts[-1] + 1))
        unions, dominated = self.block_scan(matrix, self.stack(prefixes), spans)
        first_dominated = dominated.index(True) if True in dominated else -1
        return FrontierBlock(
            start, rows, unions, self.block_digests(unions), first_dominated
        )

    def block_digests(self, unions):
        """64-bit digests of a block of union rows, as a list of ints.

        Digests follow the PR-6 contract: collisions are allowed (the engine
        exact-verifies via :meth:`key` on every match) but equal signatures
        must digest equally *within one backend instance*.
        """
        key = self.key
        return [hash(key(row)) for row in unions]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_paths={self.n_paths})"


class PythonBackend(SignatureBackend):
    """Signatures as Python big integers (the library's original encoding)."""

    name = "python"

    def pack(self, mask: int) -> int:
        return mask

    def empty(self) -> int:
        return 0

    def union(self, first: int, second: int) -> int:
        return first | second

    def key(self, signature: int) -> int:
        return signature

    def is_subset(self, first: int, second: int) -> bool:
        return first | second == second

    def is_empty(self, signature: int) -> bool:
        return not signature

    def bits(self, signature: int) -> Iterator[int]:
        return bits_of(signature)

    def to_int(self, signature: int) -> int:
        return signature

    def indicator_vector(self, signature: int) -> Tuple[int, ...]:
        vector = [0] * self.n_paths
        for index in bits_of(signature):
            vector[index] = 1
        return tuple(vector)


class NumpyBackend(SignatureBackend):
    """Signatures as read-only little-endian ``uint64`` word arrays."""

    name = "numpy"

    vectorized_blocks = True

    def __init__(self, n_paths: int) -> None:
        if _np is None:
            raise IdentifiabilityError(
                "the numpy backend was requested but numpy is not installed"
            )
        super().__init__(n_paths)
        self.n_words = max(1, -(-n_paths // 64))
        # Per-word fold weights for block_digests: distinct odd constants so
        # the XOR fold is word-position dependent (permuted words collide no
        # more often than unrelated rows).
        weights = (
            _np.uint64(0x9E3779B97F4A7C15)
            * (_np.uint64(2) * _np.arange(self.n_words, dtype=_np.uint64) + _np.uint64(1))
        )
        weights.setflags(write=False)
        self._digest_weights = weights

    def pack(self, mask: int):
        # frombuffer over the little-endian byte encoding yields a read-only
        # array, which enforces the immutability the engine relies on.
        return _np.frombuffer(
            mask.to_bytes(self.n_words * 8, "little"), dtype="<u8"
        )

    def empty(self):
        return self.pack(0)

    def union(self, first, second):
        out = _np.bitwise_or(first, second)
        out.setflags(write=False)
        return out

    def key(self, signature) -> bytes:
        return signature.tobytes()

    def is_subset(self, first, second) -> bool:
        return not bool(_np.any(first & ~second))

    def is_empty(self, signature) -> bool:
        return not bool(signature.any())

    def bits(self, signature) -> Iterator[int]:
        # Unpack + nonzero stays inside numpy; the old implementation
        # round-tripped every query through a Python big int.
        unpacked = _np.unpackbits(signature.view(_np.uint8), bitorder="little")
        return iter(_np.nonzero(unpacked)[0].tolist())

    def to_int(self, signature) -> int:
        return int.from_bytes(signature.tobytes(), "little")

    def indicator_vector(self, signature) -> Tuple[int, ...]:
        unpacked = _np.unpackbits(
            signature.view(_np.uint8), bitorder="little", count=self.n_paths
        )
        return tuple(int(bit) for bit in unpacked)

    def stack(self, signatures):
        if not signatures:
            return _np.zeros((0, self.n_words), dtype="<u8")
        stacked = _np.vstack(signatures)
        stacked.setflags(write=False)
        return stacked

    def block_frontier(
        self, matrix, size: int, start: int, stop: int
    ) -> FrontierBlock:
        # The chunk's index rows come from the combinatorial number system
        # (one searchsorted per column, no per-row Python); each row's
        # prefix union is an OR of gathered matrix rows, its union one more
        # gather, and dominance ``last ⊆ prefix`` is ``union == prefix``.
        n = matrix.shape[0]
        rows = _combination_rows(n, size, start, stop)
        if size == 1:
            prefix = _np.zeros((stop - start, self.n_words), dtype="<u8")
        else:
            prefix = matrix.take(rows[:, 0], axis=0)
        for column in range(1, size - 1):
            prefix |= matrix.take(rows[:, column], axis=0)
        unions = matrix.take(rows[:, size - 1], axis=0)
        unions |= prefix
        dominated = (unions == prefix).all(axis=1)
        # Free the prefixes before the digest fold allocates its product,
        # so a chunk never holds more than two (rows, n_words) buffers.
        del prefix
        first_dominated = int(dominated.argmax()) if dominated.any() else -1
        unions.setflags(write=False)
        return FrontierBlock(
            start, rows, unions, self.block_digests(unions), first_dominated
        )

    def block_digests(self, unions):
        # Weighted fold first — one multiply and one XOR reduction over the
        # (B, W) block — then a splitmix64-style finalizer on the folded
        # (B,) column only.  Folding before finalising keeps the pass count
        # (and memory traffic) flat in W; uint64 arithmetic wraps mod 2**64
        # (C semantics), which is exactly what the mix wants.  Collisions
        # are exact-verified by the engine, so the per-word odd multipliers
        # only have to keep accidental cancellation rare.
        folded = _np.bitwise_xor.reduce(unions * self._digest_weights, axis=1)
        folded = _np.bitwise_xor(folded, folded >> _np.uint64(30))
        folded = folded * _np.uint64(0xBF58476D1CE4E5B9)
        folded ^= folded >> _np.uint64(27)
        folded = folded * _np.uint64(0x94D049BB133111EB)
        folded ^= folded >> _np.uint64(31)
        return folded.tolist()


BackendSpec = Union[None, str, SignatureBackend]


def normalize_backend_spec(backend: BackendSpec) -> str:
    """Canonicalise a backend spec *without* resolving ``"auto"``.

    ``None`` becomes the current global policy; strings are normalised and
    validated; instances map to their concrete name.  Callers that memoise
    engines key on this — keeping ``"auto"`` symbolic lets the engine resolve
    it against the width it will actually operate on (the compressed width),
    so every construction route picks the same backend.
    """
    if isinstance(backend, SignatureBackend):
        return backend.name
    name = (_policy if backend is None else str(backend).strip().lower())
    if name not in _POLICIES:
        raise IdentifiabilityError(
            f"unknown backend {backend!r}; expected 'auto', 'python' or 'numpy'"
        )
    return name


def resolve_backend_name(backend: BackendSpec, n_paths: int) -> str:
    """The concrete backend name a spec resolves to for a given width.

    ``n_paths`` is the width the backend will operate on — for a compressed
    engine that is the number of distinct columns, not the raw ``|P|``.
    """
    name = normalize_backend_spec(backend)
    if name == "auto":
        return "numpy" if numpy_available() and n_paths >= NUMPY_MIN_PATHS else "python"
    return name


def resolve_backend(backend: BackendSpec, n_paths: int) -> SignatureBackend:
    """Turn a backend spec into a ready-to-use backend instance."""
    if isinstance(backend, SignatureBackend):
        return backend
    name = resolve_backend_name(backend, n_paths)
    if name == "numpy":
        return NumpyBackend(n_paths)
    return PythonBackend(n_paths)
