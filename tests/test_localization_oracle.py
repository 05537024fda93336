"""The localiser against brute-force Equation (1).

The oracle is the Boolean system itself: a failure set is consistent iff
:meth:`BooleanSystem.is_satisfied_by` holds, swept over every set of at most
``k`` of the system's variables (the elements some path crosses — an element
no path crosses has no variable in Eq. 1).  For link and SRLG universes the
clauses are built from the path tuples (a path's links, the groups holding
any of them), never from the engine's masks.

The localiser must return exactly the oracle's sets, in its order (size
ascending, ``repr``-sorted within a size), for every universe, with
compression on and off, on every backend, for *arbitrary* observation
vectors: classes with mixed bits, failing paths no element crosses,
all-zero and all-one vectors, not only vectors produced by measuring.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.backends import available_backends
from repro.engine.compress import compression_policy
from repro.engine.signatures import SignatureEngine
from repro.failures.universe import canonical_link
from repro.routing.paths import PathSet
from repro.tomography.boolean_system import BooleanEquation, BooleanSystem
from repro.tomography.inference import (
    consistent_element_sets,
    consistent_failure_sets,
    consistent_sets,
    localize_failures,
)

from test_engine import MECHANISMS, random_instance

BACKENDS = sorted(available_backends())
KINDS = ("node", "link", "srlg")
CORPUS_GLOB = os.path.join(os.path.dirname(__file__), "corpus", "localization_*.json")


def _triangle_pathset() -> PathSet:
    # (a, b) and (b, a) cross the same nodes and the same undirected link:
    # one compressed class, so observing them differently is contradictory.
    return PathSet(
        nodes=("a", "b", "c"),
        paths=(("a", "b"), ("b", "a"), ("b", "c"), ("a", "c"), ("a", "b", "c")),
    )


def _line_pathset() -> PathSet:
    # The loop probe (c, c) crosses node c but no link.
    return PathSet(
        nodes=("a", "b", "c", "d"),
        paths=(("a", "b", "c", "d"), ("b", "c"), ("c", "c")),
    )


def _isolated_pathset() -> PathSet:
    # Node z is on no path.
    return PathSet(nodes=("a", "b", "z"), paths=(("a", "b"),))


FIXTURES = {
    "triangle": _triangle_pathset,
    "line": _line_pathset,
    "isolated": _isolated_pathset,
}


def _srlg_groups(pathset: PathSet):
    """Overlapping groups: every link alone, plus one group of all links."""
    links = pathset.links
    groups = {f"l{i}": [link] for i, link in enumerate(links)}
    groups["all"] = list(links)
    return groups


def _universe(pathset: PathSet, kind: str):
    if kind == "srlg":
        return pathset.universe("srlg", groups=_srlg_groups(pathset))
    return pathset.universe(kind)


def _clauses(pathset: PathSet, universe):
    """Each path's Eq. 1 variables in ``universe``, read off the path tuple."""
    if universe.kind == "node":
        return list(pathset.paths)
    directed = bool(pathset.directed)
    path_links = [
        {canonical_link(u, v, directed) for u, v in zip(path, path[1:]) if u != v}
        for path in pathset.paths
    ]
    if universe.kind == "link":
        return [tuple(links) for links in path_links]
    return [
        tuple(name for name, members in universe.groups if links & set(members))
        for links in path_links
    ]


def oracle_sets(clauses, observations, max_failures, within=None):
    """Every set of ≤ ``max_failures`` Eq. 1 variables satisfying the system."""
    system = BooleanSystem(
        tuple(BooleanEquation(tuple(c), int(b)) for c, b in zip(clauses, observations))
    )
    pool = system.variables
    if within is not None:
        pool &= frozenset(within)
    ordered = sorted(pool, key=repr)
    return tuple(
        frozenset(combo)
        for size in range(max_failures + 1)
        for combo in itertools.combinations(ordered, size)
        if system.is_satisfied_by(combo)
    )


# ---------------------------------------------------------------------------
# Hand-built topologies: one behavioural assertion each
# ---------------------------------------------------------------------------

class TestTriangle:
    def test_mixed_class_has_no_explanation(self) -> None:
        pathset = _triangle_pathset()
        assert consistent_failure_sets(pathset, (1, 0, 0, 0, 0), 3) == ()

    def test_all_one_needs_two_nodes(self) -> None:
        sets = consistent_failure_sets(_triangle_pathset(), (1,) * 5, 2)
        assert sets == (frozenset("ab"), frozenset("ac"), frozenset("bc"))

    def test_all_zero_blames_nobody(self) -> None:
        assert consistent_failure_sets(_triangle_pathset(), (0,) * 5, 3) == (
            frozenset(),
        )


class TestLine:
    def test_failing_path_crossing_no_link_has_no_explanation(self) -> None:
        universe = _line_pathset().universe("link")
        assert consistent_element_sets(universe, (1, 1, 1), 3) == ()

    def test_middle_link_is_pinned(self) -> None:
        universe = _line_pathset().universe("link")
        assert consistent_element_sets(universe, (1, 1, 0), 1) == (
            frozenset({("b", "c")}),
        )


class TestIsolated:
    def test_isolated_node_is_never_blamed(self) -> None:
        sets = localize_failures(_isolated_pathset(), (1,), 3).consistent_sets
        assert sets == (frozenset("a"), frozenset("b"), frozenset("ab"))

    def test_universe_filter_drops_excluded_candidates(self) -> None:
        sets = consistent_failure_sets(_isolated_pathset(), (1,), 3, universe={"b", "z"})
        assert sets == (frozenset("b"),)


# ---------------------------------------------------------------------------
# Exhaustive parity on the fixtures: every observation vector
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("compress", [True, False])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_every_observation_vector_matches_oracle(fixture, kind, compress, backend):
    pathset = FIXTURES[fixture]()
    universe = _universe(pathset, kind)
    engine = pathset.engine(backend, compress, universe=universe)
    clauses = _clauses(pathset, universe)
    for observations in itertools.product((0, 1), repeat=pathset.n_paths):
        for k in range(4):
            assert consistent_sets(engine, observations, k) == oracle_sets(
                clauses, observations, k
            ), (observations, k)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_universe_filter_matches_oracle(fixture):
    pathset = FIXTURES[fixture]()
    clauses = _clauses(pathset, pathset.universe("node"))
    nodes = sorted(pathset.nodes)
    for observations in itertools.product((0, 1), repeat=pathset.n_paths):
        for r in range(len(nodes) + 1):
            for within in itertools.combinations(nodes, r):
                assert consistent_failure_sets(
                    pathset, observations, 3, universe=within
                ) == oracle_sets(clauses, observations, 3, within)


# ---------------------------------------------------------------------------
# Random instances: measured, perturbed and arbitrary observation vectors
# ---------------------------------------------------------------------------

def _observation_vectors(engine, universe, rng):
    """Measured vectors of random failures, one-bit perturbations of them
    (these split compressed classes), and arbitrary vectors."""
    n = universe.n_paths
    elements = sorted(universe.elements, key=repr)
    vectors = [(0,) * n, (1,) * n, tuple(rng.randint(0, 1) for _ in range(n))]
    for size in (1, 2):
        measured = engine.measurement_vector(rng.sample(elements, min(size, len(elements))))
        vectors.append(measured)
        flipped = list(measured)
        flipped[rng.randrange(n)] ^= 1
        vectors.append(tuple(flipped))
    return vectors


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_random_instances_match_oracle(mechanism, kind):
    for seed in range(6):
        _, _, pathset = random_instance(seed, mechanism)
        universe = _universe(pathset, kind)
        clauses = _clauses(pathset, universe)
        rng = random.Random(f"oracle:{seed}:{mechanism}:{kind}")
        engines = [
            pathset.engine(backend, compress, universe=universe)
            for backend in BACKENDS
            for compress in (True, False)
        ]
        for observations in _observation_vectors(engines[0], universe, rng):
            expected = oracle_sets(clauses, observations, 2)
            for engine in engines:
                assert consistent_sets(engine, observations, 2) == expected, (
                    seed, engine.backend.name, engine.compression is not None
                )
            assert consistent_element_sets(universe, observations, 2) == expected


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_random_instances_universe_filter_matches_oracle(mechanism):
    for seed in range(6):
        _, _, pathset = random_instance(seed, mechanism)
        clauses = _clauses(pathset, pathset.universe("node"))
        rng = random.Random(f"oracle-filter:{seed}:{mechanism}")
        nodes = sorted(pathset.nodes, key=repr)
        within = rng.sample(nodes, len(nodes) // 2)
        for observations in _observation_vectors(
            pathset.engine(), pathset.universe("node"), rng
        ):
            for compress in (True, False):
                with compression_policy(compress):
                    assert consistent_failure_sets(
                        pathset, observations, 2, universe=within
                    ) == oracle_sets(clauses, observations, 2, within)


# ---------------------------------------------------------------------------
# Raw engine instances (Hypothesis) and their shrunk corpus
# ---------------------------------------------------------------------------

@st.composite
def instances(draw):
    """Element masks over a tiny universe plus an arbitrary observation."""
    n_paths = draw(st.integers(min_value=0, max_value=6))
    n_elements = draw(st.integers(min_value=1, max_value=6))
    masks = [
        draw(st.integers(min_value=0, max_value=2**n_paths - 1))
        for _ in range(n_elements)
    ]
    observations = [draw(st.integers(0, 1)) for _ in range(n_paths)]
    return {
        "n_paths": n_paths,
        "masks": masks,
        "observations": observations,
        "max_failures": draw(st.integers(min_value=0, max_value=3)),
        "compress": draw(st.booleans()),
        "backend": draw(st.sampled_from(BACKENDS)),
    }


def _assert_instance_parity(instance) -> None:
    elements = [f"e{i}" for i in range(len(instance["masks"]))]
    masks = dict(zip(elements, instance["masks"]))
    engine = SignatureEngine(
        elements,
        masks,
        instance["n_paths"],
        backend=instance["backend"],
        compress=instance["compress"],
    )
    clauses = [
        tuple(e for e in elements if masks[e] >> path & 1)
        for path in range(instance["n_paths"])
    ]
    observations = tuple(instance["observations"])
    k = instance["max_failures"]
    assert consistent_sets(engine, observations, k) == oracle_sets(
        clauses, observations, k
    ), instance


class TestRawInstances:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=instances())
    def test_random_raw_instances_match_oracle(self, instance):
        _assert_instance_parity(instance)

    @pytest.mark.parametrize("path", sorted(glob.glob(CORPUS_GLOB)), ids=os.path.basename)
    def test_corpus_replay(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            instance = json.load(handle)
        if instance["backend"] not in available_backends():
            instance = dict(instance, backend="python")
        _assert_instance_parity(instance)
