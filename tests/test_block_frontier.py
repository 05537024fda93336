"""The block kernel's rank-addressed frontier, and block == scalar under
stress.

The block kernel addresses the size-``s`` subsets by lexicographic rank: a
chunk is a rank interval whose index rows come from the combinatorial number
system, a clean chunk (no dominated row, digests distinct and new) is
inserted in bulk and charged to the budget in one clamped spend, and every
other chunk is replayed row by row.  These tests pin the index arithmetic to
``itertools.combinations`` and then attack the two bulk shortcuts: a 4-bit
digest makes nearly every chunk unclean (so replay and exact verification
carry the search), and a subset-budget sweep lands the truncation point on
every row, across chunk boundaries.
"""

from __future__ import annotations

import itertools
import math

import pytest

import repro
from repro.engine import signatures as sig
from repro.engine.backends import (
    PythonBackend,
    numpy_available,
    unrank_combination,
)
from repro.resilience.budget import Budget

from test_block_kernel import (
    KINDS,
    N_SEEDS,
    SUBSET_BUDGET,
    _assert_stats_parity,
    _pathset,
    _universe,
)

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


def _backend(name: str, width: int):
    if name == "numpy":
        from repro.engine.backends import NumpyBackend

        return NumpyBackend(width)
    return PythonBackend(width)


def _union(backend, signatures, indices):
    signature = backend.empty()
    for index in indices:
        signature = backend.union(signature, signatures[index])
    return signature


class TestRankArithmetic:
    def test_unrank_matches_itertools_order(self):
        for n in range(0, 9):
            for size in range(0, n + 1):
                combos = list(itertools.combinations(range(n), size))
                assert [
                    unrank_combination(n, size, rank)
                    for rank in range(len(combos))
                ] == combos, (n, size)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_frontier_blocks_reproduce_the_serial_frontier(self, backend_name):
        """Chunks concatenate to the lexicographic frontier of every
        first-index block, with exact unions, digests and dominance."""
        width = 11
        backend = _backend(backend_name, width)
        masks = [0b101, 0b110, 0b1, 0b11000, 0, 0b10100000000, 0b110, 0b1000]
        signatures = [backend.pack(mask) for mask in masks]
        matrix = backend.stack(signatures)
        n = len(signatures)
        for size in range(1, n + 1):
            for first_lo, first_hi in ((0, None), (0, 2), (1, 4), (3, n)):
                expected = [
                    combo
                    for combo in itertools.combinations(range(n), size)
                    if combo[0] >= first_lo
                    and (first_hi is None or combo[0] < first_hi)
                ]
                for block_size in (1, 2, 5, 1024):
                    rows = []
                    for block in sig._frontier_blocks(
                        backend, matrix, size, block_size, first_lo, first_hi
                    ):
                        subsets = block.subsets()
                        assert len(subsets) <= block_size
                        assert block.digests == backend.block_digests(
                            block.unions
                        )
                        dominated = [
                            j
                            for j, subset in enumerate(subsets)
                            if backend.is_subset(
                                signatures[subset[-1]],
                                _union(backend, signatures, subset[:-1]),
                            )
                        ]
                        assert block.first_dominated == (
                            dominated[0] if dominated else -1
                        )
                        for j, subset in enumerate(subsets):
                            assert backend.key(block.unions[j]) == backend.key(
                                _union(backend, signatures, subset)
                            )
                        rows.extend(subsets)
                    assert rows == expected, (size, first_lo, first_hi)

    @needs_numpy
    def test_rank_space_beyond_int64(self):
        """C(150000, 4) overflows int64: the index rows fall back to exact
        Python-int arithmetic instead of wrapping."""
        from repro.engine.backends import _combination_rows

        n, size = 150_000, 4
        total = math.comb(n, size)
        assert total >= 2**63
        for start in (0, 123_456_789_012, total // 2, total - 5):
            rows = _combination_rows(n, size, start, start + 5)
            assert [tuple(row) for row in rows.tolist()] == [
                unrank_combination(n, size, rank)
                for rank in range(start, start + 5)
            ]


@pytest.fixture
def weak_digests(monkeypatch):
    """Cut the numpy row digest to 4 bits, so nearly every chunk has a
    digest match: replay and exact verification carry the whole search.
    Sharding is forced on (threads, every size) so ``search_jobs > 1``
    exercises the shard scan and the cross-shard merge too."""
    from repro.engine.backends import NumpyBackend

    original = NumpyBackend.block_digests

    def weak(self, unions):
        return [digest & 0xF for digest in original(self, unions)]

    monkeypatch.setattr(NumpyBackend, "block_digests", weak)
    monkeypatch.setattr(sig, "MIN_SHARDED_FRONTIER", 0)
    monkeypatch.setattr(sig, "_FORCE_EXECUTOR", "thread")


@needs_numpy
class TestWeakDigest:
    @pytest.mark.parametrize("kind", KINDS)
    def test_block_matches_scalar_with_four_bit_digests(self, kind, weak_digests):
        # The random instances mostly stop at size 2; H_4 under χ_g (µ = 2)
        # adds a size-3 sweep that crosses many chunk boundaries.
        grid = repro.directed_grid(4)
        deeper = repro.enumerate_paths(grid, repro.chi_g(grid))
        pathsets = [_pathset(seed, "CSP") for seed in range(N_SEEDS)] + [deeper]
        for seed, pathset in enumerate(pathsets):
            engine = pathset.engine("numpy", universe=_universe(pathset, kind))
            for jobs, subset_budget in ((1, None), (1, SUBSET_BUDGET), (3, None)):
                scalar = engine.identifiability(
                    search_jobs=jobs,
                    kernel="scalar",
                    budget=subset_budget and Budget(subset_budget=subset_budget),
                )
                for block_size in (1, 3, 1024):
                    block = engine.identifiability(
                        search_jobs=jobs,
                        kernel="block",
                        block_size=block_size,
                        budget=subset_budget
                        and Budget(subset_budget=subset_budget),
                    )
                    _assert_stats_parity(
                        block, scalar, (seed, kind, jobs, subset_budget, block_size)
                    )

    @pytest.mark.parametrize("kind", KINDS)
    def test_digest_stream_with_four_bit_digests(self, kind, weak_digests):
        for seed in range(0, N_SEEDS, 4):
            pathset = _pathset(seed, "CSP")
            engine = pathset.engine("numpy", universe=_universe(pathset, kind))
            backend = engine.backend
            scalar = [
                subset
                for subset, _ in engine.iter_subset_digests(
                    range(0, 4), kernel="scalar"
                )
            ]
            for block_size in (1, 3, 1024):
                stream = list(
                    engine.iter_subset_digests(
                        range(0, 4), kernel="block", block_size=block_size
                    )
                )
                assert [subset for subset, _ in stream] == scalar
                for subset, digest in stream:
                    assert digest < 16
                    assert digest == backend.block_digests(
                        backend.stack([engine.union_signature(subset)])
                    )[0]


class TestSubsetBudgetSweep:
    """Every subset budget from 1 to past the full search: the bulk spend on
    clean chunks must stop on the very row the per-row spend stops at."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_every_budget_matches_scalar(self, backend_name):
        grid = repro.directed_grid(4)
        pathset = repro.enumerate_paths(grid, repro.chi_g(grid))
        engine = pathset.engine(backend_name)
        full = engine.identifiability(kernel="scalar")
        assert full.searched_up_to == 3  # µ = 2: sizes 2 and 3 are scanned
        for subset_budget in range(1, full.stats.subsets_enumerated + 2):
            scalar_budget = Budget(subset_budget=subset_budget)
            scalar = engine.identifiability(kernel="scalar", budget=scalar_budget)
            for block_size in (3, 1024):
                block_budget = Budget(subset_budget=subset_budget)
                block = engine.identifiability(
                    kernel="block", block_size=block_size, budget=block_budget
                )
                context = (subset_budget, block_size)
                _assert_stats_parity(block, scalar, context)
                assert block_budget.consumed == scalar_budget.consumed, context
