"""Parity and round-trip tests for signature-universe compression.

The duplicate-column collapse of :mod:`repro.engine.compress` must be
*invisible* in every engine result: µ, witnesses, ``searched_up_to``,
exhaustion, separability matrices, equivalence classes and measurement
vectors all have to come out bit-identical whether the engine runs on the
raw or the compressed universe.  The property tests below check exactly that
on ≥20 random instances per routing mechanism, and the plan itself is
checked to round-trip original path indices.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.identifiability import (
    maximal_identifiability,
    maximal_identifiability_detailed,
)
from repro.core.truncated import truncated_identifiability_detailed
from repro.engine import (
    CompressionPlan,
    SignatureEngine,
    compress_universe,
    compression_enabled,
    compression_policy,
    select_compression,
)
from repro.exceptions import IdentifiabilityError
from repro.routing.paths import PathSet
from repro.engine.compress import ColumnClasses
from repro.utils.bitset import bit_indices, bits_of, masks_for_nodes

from test_engine import MECHANISMS, PARITY_SEEDS, random_instance


@pytest.fixture(autouse=True)
def reset_compression_policy():
    """Keep the global compression policy pristine across tests."""
    with compression_policy(True):
        yield


def _compressible_pathset() -> PathSet:
    """A tiny path set with duplicate columns: paths 0/2 share {a, b}."""
    return PathSet(
        nodes=("a", "b", "c"),
        paths=(("a", "b"), ("b", "c"), ("b", "a"), ("a", "b", "c")),
    )


# ---------------------------------------------------------------------------
# Compressed vs raw engine parity (the tentpole's soundness property)
# ---------------------------------------------------------------------------

class TestCompressedRawParity:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_mu_witness_and_search_parity(self, seed, mechanism):
        _, _, pathset = random_instance(seed, mechanism)
        raw = maximal_identifiability_detailed(pathset, max_size=4, compress=False)
        compressed = maximal_identifiability_detailed(
            pathset, max_size=4, compress=True
        )
        assert compressed.value == raw.value
        assert compressed.searched_up_to == raw.searched_up_to
        assert compressed.exhausted_search == raw.exhausted_search
        if raw.witness is None:
            assert compressed.witness is None
        else:
            # Identical branches -> the *same* witness, not just a valid one.
            assert compressed.witness.first == raw.witness.first
            assert compressed.witness.second == raw.witness.second
            # And it must be a genuine confusable pair over the raw paths.
            assert pathset.paths_through_set(
                compressed.witness.first
            ) == pathset.paths_through_set(compressed.witness.second)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_separability_matrix_parity(self, seed, mechanism):
        _, _, pathset = random_instance(seed, mechanism)
        raw = pathset.engine(compress=False)
        compressed = pathset.engine(compress=True)
        assert compressed.separability_matrix(2) == raw.separability_matrix(2)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_measurement_vector_parity(self, seed, mechanism):
        _, _, pathset = random_instance(seed, mechanism)
        raw = pathset.engine(compress=False)
        compressed = pathset.engine(compress=True)
        failure_sets = (
            frozenset(),
            frozenset(pathset.nodes[:1]),
            frozenset(pathset.nodes[:3]),
            frozenset(pathset.nodes),
        )
        for failed in failure_sets:
            assert compressed.measurement_vector(failed) == raw.measurement_vector(
                failed
            ), f"measurement vectors diverge for {sorted(map(repr, failed))}"

    @pytest.mark.parametrize("seed", (0, 5, 11, 17))
    def test_equivalence_classes_and_truncated_parity(self, seed):
        _, _, pathset = random_instance(seed, "CAP")
        raw = pathset.engine(compress=False)
        compressed = pathset.engine(compress=True)
        assert compressed.equivalence_classes() == raw.equivalence_classes()
        trunc_raw = truncated_identifiability_detailed(pathset, 2, compress=False)
        trunc_compressed = truncated_identifiability_detailed(
            pathset, 2, compress=True
        )
        assert trunc_compressed.value == trunc_raw.value
        assert trunc_compressed.searched_up_to == trunc_raw.searched_up_to


# ---------------------------------------------------------------------------
# The plan: round-trips, multiplicities, index remap
# ---------------------------------------------------------------------------

class TestCompressionPlan:
    def test_duplicate_columns_are_merged(self):
        pathset = _compressible_pathset()
        engine = pathset.engine(compress=True)
        plan = engine.compression
        assert plan is not None
        assert plan.n_original == 4
        # paths 0 and 2 have touch-set {a, b}; the rest are distinct.
        assert plan.members == ((0, 2), (1,), (3,))
        assert plan.multiplicity == (2, 1, 1)
        assert plan.representatives == (0, 1, 3)
        assert engine.n_columns == 3
        assert engine.n_paths == 4  # reported width stays the original

    def test_class_of_remap_is_consistent(self):
        plan = _compressible_pathset().engine(compress=True).compression
        for compressed_index, group in enumerate(plan.members):
            for original_index in group:
                assert plan.class_of[original_index] == compressed_index

    def test_node_masks_round_trip(self):
        """Node rows are class-closed, so compress∘expand is the identity."""
        for seed in range(10):
            _, _, pathset = random_instance(seed, "CAP-")
            plan = pathset.engine(compress=True).compression
            if plan is None:  # identity universes carry no plan
                continue
            for node in pathset.nodes:
                mask = pathset.paths_through(node)
                assert plan.expand_mask(plan.compress_mask(mask)) == mask

    def test_expand_indices_matches_raw_union(self):
        for seed in (1, 4, 8):
            _, _, pathset = random_instance(seed, "CAP")
            engine = pathset.engine(compress=True)
            plan = engine.compression
            if plan is None:
                continue
            subset = frozenset(pathset.nodes[:2])
            signature = engine.union_signature(subset)
            expanded = plan.expand_indices(engine.backend.bits(signature))
            assert expanded == tuple(bits_of(pathset.paths_through_set(subset)))

    def test_all_zero_columns_are_dropped(self):
        nodes = ("a", "b")
        masks = masks_for_nodes(nodes, {"a": [0], "b": [0, 2]}, 4)
        plan, compressed = compress_universe(nodes, masks, 4)
        assert plan.members == ((0,), (2,))
        assert 1 not in plan.class_of and 3 not in plan.class_of
        assert compressed == {"a": 0b01, "b": 0b11}
        raw_engine = SignatureEngine(nodes, masks, 4, compress=False)
        compressed_engine = SignatureEngine(nodes, masks, 4, compress=True)
        raw_result = raw_engine.identifiability()
        compressed_result = compressed_engine.identifiability()
        assert compressed_result.value == raw_result.value
        assert compressed_result.witness == raw_result.witness

    def test_identity_universe_skips_the_plan(self):
        pathset = PathSet(nodes=("a", "b"), paths=(("a",), ("b",), ("a", "b")))
        engine = pathset.engine(compress=True)
        assert engine.compression is None  # every column distinct: no gain
        assert engine.n_columns == engine.n_paths == 3

    def test_inconsistent_mask_width_rejected(self):
        with pytest.raises(IdentifiabilityError):
            compress_universe(("a",), {"a": 0b1001}, 2)

    def test_multiplicities_and_drops_partition_the_universe(self):
        for seed in range(8):
            _, _, pathset = random_instance(seed, "CAP")
            plan = pathset.engine(compress=True).compression
            if plan is None:
                continue
            kept = sum(plan.multiplicity)
            assert kept <= plan.n_original
            covered = sorted(j for group in plan.members for j in group)
            assert covered == sorted(plan.class_of)
            assert len(covered) == len(set(covered)) == kept


# ---------------------------------------------------------------------------
# The byte-matrix transpose against the per-entry reference transpose
# ---------------------------------------------------------------------------

def reference_compress_universe(nodes, node_masks, n_paths):
    """The per-entry transpose: one touch list per path, filled bit by bit,
    keyed by tuples of element positions; rows grown one OR at a time.

    Slow but transparent; :func:`compress_universe` must agree with it on
    the plan and every compressed row (which fix each class's touch key).
    """
    touch_sets: List[List[int]] = [[] for _ in range(n_paths)]
    for position, node in enumerate(nodes):
        mask = node_masks[node]
        if mask < 0 or mask.bit_length() > n_paths:
            raise IdentifiabilityError("mask wider than the declared universe")
        for path_index in bit_indices(mask):
            touch_sets[path_index].append(position)
    classes: Dict[Tuple[int, ...], int] = {}
    members: List[List[int]] = []
    compressed_rows = [0] * len(nodes)
    for path_index, touch in enumerate(touch_sets):
        if not touch:
            continue
        key = tuple(touch)
        compressed_index = classes.get(key)
        if compressed_index is None:
            compressed_index = len(members)
            classes[key] = compressed_index
            members.append([path_index])
            for position in touch:
                compressed_rows[position] |= 1 << compressed_index
        else:
            members[compressed_index].append(path_index)
    plan = CompressionPlan(
        n_original=n_paths,
        members=tuple(tuple(group) for group in members),
    )
    return plan, {node: compressed_rows[i] for i, node in enumerate(nodes)}


def assert_matches_reference(nodes, masks, n_paths):
    expected_plan, expected_rows = reference_compress_universe(nodes, masks, n_paths)
    plan, rows = compress_universe(nodes, masks, n_paths)
    assert plan.n_original == expected_plan.n_original
    assert plan.members == expected_plan.members
    assert rows == expected_rows
    assert ColumnClasses(nodes, masks, n_paths).is_identity == (
        expected_plan.is_identity
    )


@st.composite
def incidence_matrices(draw):
    """``(nodes, masks, n_paths)`` with duplicate and all-zero columns,
    elements whose mask is 0, zero elements and ragged widths."""
    n_elements = draw(st.integers(0, 6))
    n_paths = draw(st.one_of(st.sampled_from((1, 7, 8, 9, 15, 17, 64)),
                             st.integers(0, 80)))
    patterns = st.integers(0, (1 << n_elements) - 1)
    # A small pool of repeated patterns forces duplicate (and zero) columns.
    pool = draw(st.lists(patterns, min_size=1, max_size=3))
    columns = draw(
        st.lists(st.one_of(st.sampled_from(pool), patterns),
                 min_size=n_paths, max_size=n_paths)
    )
    silenced = draw(st.sets(st.integers(0, max(n_elements - 1, 0))))
    nodes = tuple(f"v{position}" for position in range(n_elements))
    masks = {
        node: 0 if position in silenced else sum(
            1 << j for j, column in enumerate(columns) if column >> position & 1
        )
        for position, node in enumerate(nodes)
    }
    return nodes, masks, n_paths


class TestByteMatrixTranspose:
    @given(incidence_matrices())
    @settings(max_examples=300, deadline=None)
    @example((("v0",), {"v0": 1}, 1))
    @example((("v0",), {"v0": 0}, 1))
    @example(((), {}, 5))
    @example(((), {}, 0))
    @example((("v0", "v1"), {"v0": 0b101, "v1": 0b101}, 9))
    def test_matches_reference_transpose(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("seed", range(0, 20, 3))
    def test_matches_reference_on_random_instance_universes(self, seed, mechanism):
        _, _, pathset = random_instance(seed, mechanism)
        links = pathset.links
        universes = [pathset.universe("node"), pathset.universe("link")]
        if len(links) >= 2:
            universes.append(pathset.universe(
                "srlg", groups={"a": links[::2], "b": links[1::2], "c": links[:1]}
            ))
        for universe in universes:
            assert_matches_reference(
                universe.elements, universe.masks, universe.n_paths
            )

    def test_wide_universes_match_reference(self):
        """1023 distinct non-zero columns (the identity), then the same
        universe with an all-zero and a duplicate column appended."""
        nodes = tuple(range(10))

        def masks_of(columns):
            return {
                node: sum(1 << j for j, c in enumerate(columns) if c >> node & 1)
                for node in nodes
            }

        patterns = list(range(1, 1024))
        assert ColumnClasses(nodes, masks_of(patterns), 1023).is_identity
        assert_matches_reference(nodes, masks_of(patterns), 1023)
        merged = patterns + [0, 5]
        assert not ColumnClasses(nodes, masks_of(merged), 1025).is_identity
        assert_matches_reference(nodes, masks_of(merged), 1025)


# ---------------------------------------------------------------------------
# Policy plumbing and memoisation
# ---------------------------------------------------------------------------

class TestCompressionPolicy:
    def test_default_policy_is_on(self):
        assert compression_enabled() is True
        engine = _compressible_pathset().engine()
        assert engine.compression is not None

    def test_select_compression_toggles_default(self):
        select_compression(False)
        assert compression_enabled() is False
        engine = _compressible_pathset().engine()
        assert engine.compression is None

    def test_policy_context_manager_restores(self):
        with compression_policy(False) as enabled:
            assert enabled is False
            assert compression_enabled() is False
        assert compression_enabled() is True
        with compression_policy(None):
            assert compression_enabled() is True

    def test_engines_memoised_per_compression_flag(self):
        pathset = _compressible_pathset()
        assert pathset.engine(compress=True) is pathset.engine(compress=True)
        assert pathset.engine(compress=False) is pathset.engine(compress=False)
        assert pathset.engine(compress=True) is not pathset.engine(compress=False)

    def test_mu_accepts_compress_override(self):
        _, _, pathset = random_instance(7, "CSP")
        assert maximal_identifiability(pathset, compress=True) == (
            maximal_identifiability(pathset, compress=False)
        )

    def test_describe_reports_compressed_width(self):
        engine = _compressible_pathset().engine(compress=True)
        assert "columns=3" in engine.describe()
        assert "raw" in _compressible_pathset().engine(compress=False).describe()
        plan = engine.compression
        assert "4 -> 3 columns" in plan.describe()
