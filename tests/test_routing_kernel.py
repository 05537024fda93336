"""The integer DFS kernel of ``repro.routing.paths`` against the reference
generator enumerator in ``_routing_reference.py``.

Every comparison is exact: the same paths in the same order, the same node
and link masks, and the same counts — over random small graphs (directed
with cycles, undirected, with self-loops, int/tuple/str/mixed labels), with
inputs overlapping outputs, under CSP, CAP⁻ and CAP and every small cutoff.
The ``max_paths`` boundary (for enumeration, counting and
``Scenario.evolve``) and the typed routing limits are pinned.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _routing_reference as reference
from repro.api.scenario import Scenario
from repro.api.spec import DeltaSpec
from repro.exceptions import PathExplosionError, RoutingError
from repro.monitors.grid_placement import chi_g
from repro.monitors.placement import MonitorPlacement
from repro.routing.paths import count_paths, enumerate_paths
from repro.topology.grids import directed_grid
from repro.topology.lines import line_graph

MECHANISMS = ("CSP", "CAP-", "CAP")
CUTOFFS = (None, 1, 2, 3, 4)
LABELINGS = (
    lambda i: i,
    lambda i: (i % 2, i),
    lambda i: f"n{i}",
    lambda i: i if i % 2 else f"n{i}",
)


@st.composite
def graphs(draw):
    """A small graph whose edge insertion order (hence adjacency order) is
    drawn too, self-loops included."""
    n = draw(st.integers(min_value=1, max_value=6))
    directed = draw(st.booleans())
    label = draw(st.sampled_from(LABELINGS))
    pairs = [
        (label(u), label(v))
        for u in range(n)
        for v in range(n)
        if directed or u <= v
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    graph = nx.DiGraph() if directed else nx.Graph()
    graph.add_nodes_from(label(i) for i in draw(st.permutations(range(n))))
    graph.add_edges_from(edges)
    return graph


@st.composite
def routing_cases(draw):
    graph = draw(graphs())
    nodes = sorted(graph.nodes, key=repr)
    inputs = draw(st.sets(st.sampled_from(nodes), min_size=1))
    outputs = draw(st.sets(st.sampled_from(nodes), min_size=1))
    placement = MonitorPlacement.of(inputs=inputs, outputs=outputs)
    return (
        graph,
        placement,
        draw(st.sampled_from(MECHANISMS)),
        draw(st.sampled_from(CUTOFFS)),
    )


class TestKernelAgainstReference:
    @given(case=routing_cases())
    @settings(max_examples=300, deadline=None)
    def test_enumeration_is_identical(self, case):
        graph, placement, mechanism, cutoff = case
        try:
            paths, node_masks = reference.reference_enumeration(
                graph, placement, mechanism, cutoff
            )
        except RoutingError:
            with pytest.raises(RoutingError):
                enumerate_paths(graph, placement, mechanism, cutoff)
            with pytest.raises(RoutingError):
                count_paths(graph, placement, mechanism, cutoff)
            return
        pathset = enumerate_paths(graph, placement, mechanism, cutoff)
        assert pathset.paths == paths
        assert {node: pathset.paths_through(node) for node in pathset.nodes} == node_masks
        assert {
            link: pathset.paths_through_link(link) for link in pathset.links
        } == reference.reference_link_masks(graph, paths)
        assert count_paths(graph, placement, mechanism, cutoff) == pathset.n_paths


class TestSmallFixtures:
    """One behavioural assertion per tiny topology."""

    def test_triangle_emits_depth_first_in_adjacency_order(self):
        graph = nx.cycle_graph(3)
        placement = MonitorPlacement.of(inputs={0}, outputs={1, 2})
        assert enumerate_paths(graph, placement).paths == (
            (0, 1),
            (0, 1, 2),
            (0, 2),
            (0, 2, 1),
        )

    def test_line_has_one_path_through_every_node(self):
        pathset = enumerate_paths(
            line_graph(4), MonitorPlacement.of(inputs={0}, outputs={3})
        )
        assert [pathset.paths_through(node) for node in range(4)] == [1, 1, 1, 1]

    def test_isolated_node_is_uncovered(self):
        graph = line_graph(3)
        graph.add_node("island")
        pathset = enumerate_paths(graph, MonitorPlacement.of(inputs={0}, outputs={2}))
        assert pathset.uncovered_nodes() == {"island"}

    def test_source_that_is_an_output_closes_one_cycle_and_one_loop(self):
        graph = nx.cycle_graph(3)
        placement = MonitorPlacement.of(inputs={0}, outputs={0})
        assert enumerate_paths(graph, placement, "CAP").paths == (
            (0, 1, 2, 0),
            (0, 0),
        )


def _cap_case():
    """An undirected 5-cycle with a monitor node that is input and output."""
    graph = nx.cycle_graph(5)
    graph.add_edge(0, 2)
    return graph, MonitorPlacement.of(inputs={0, 1}, outputs={0, 3})


class TestMaxPathsBoundary:
    """``max_paths == n_paths`` succeeds; one less raises."""

    @pytest.mark.parametrize(
        "graph, placement, mechanism",
        (
            (directed_grid(3), chi_g(directed_grid(3)), "CSP"),
            # One cycle, found first from the anchor's first neighbour next
            # to the retraced (1, 0): its raw search emits one path more
            # than the closed family keeps.
            (nx.cycle_graph(3), MonitorPlacement.of(inputs={0}, outputs={0, 1}), "CAP-"),
            (nx.cycle_graph(3), MonitorPlacement.of(inputs={0}, outputs={0, 1}), "CAP"),
            (
                nx.cycle_graph(4, nx.DiGraph),
                MonitorPlacement.of(inputs={0}, outputs={0, 2}),
                "CAP-",
            ),
        ),
    )
    def test_enumerate_and_count(self, graph, placement, mechanism):
        n = count_paths(graph, placement, mechanism)
        assert enumerate_paths(graph, placement, mechanism, max_paths=n).n_paths == n
        assert count_paths(graph, placement, mechanism, max_paths=n) == n
        with pytest.raises(PathExplosionError):
            enumerate_paths(graph, placement, mechanism, max_paths=n - 1)
        with pytest.raises(PathExplosionError):
            count_paths(graph, placement, mechanism, max_paths=n - 1)

    @pytest.mark.parametrize("mechanism", ("CAP-", "CAP"))
    def test_overflow_inside_the_closed_family(self, mechanism):
        graph, placement = _cap_case()
        n_open = enumerate_paths(graph, placement, "CSP").n_paths
        n = count_paths(graph, placement, mechanism)
        assert n - n_open >= 2, "the closed family must hold several paths"
        for limit in (n - 1, n_open + 1):
            with pytest.raises(PathExplosionError):
                enumerate_paths(graph, placement, mechanism, max_paths=limit)
            with pytest.raises(PathExplosionError):
                count_paths(graph, placement, mechanism, max_paths=limit)
        assert enumerate_paths(graph, placement, mechanism, max_paths=n).n_paths == n
        assert count_paths(graph, placement, mechanism, max_paths=n) == n

    @pytest.mark.parametrize("mechanism", ("CSP", "CAP"))
    def test_evolve(self, mechanism):
        graph, placement = _cap_case()
        delta = DeltaSpec(add_links=((1, 3),))

        def evolve(max_paths):
            base = Scenario.from_components(
                graph, placement, mechanism, max_paths=max_paths
            )
            return base.evolve(delta)

        evolved_graph = graph.copy()
        evolved_graph.add_edge(1, 3)
        n = count_paths(evolved_graph, placement, mechanism)
        evolved = evolve(n)
        assert evolved.pathset.paths == enumerate_paths(
            evolved.graph, placement, mechanism
        ).paths
        limits = [n - 1]
        if mechanism == "CAP":
            # Room for every open path but not the whole closed family.
            limits.append(count_paths(evolved_graph, placement, "CSP") + 1)
        for limit in limits:
            with pytest.raises(PathExplosionError):
                evolve(limit)


class TestTypedLimits:
    """Bad routing limits are a ``RoutingError`` naming the field."""

    @pytest.mark.parametrize("max_paths", (2.5, True, 0, -1, "10"))
    def test_bad_max_paths(self, max_paths):
        graph, placement = _cap_case()
        for call in (enumerate_paths, count_paths):
            with pytest.raises(RoutingError, match="max_paths") as info:
                call(graph, placement, "CSP", max_paths=max_paths)
            assert not isinstance(info.value, PathExplosionError)

    @pytest.mark.parametrize("cutoff", (1.5, True, "2"))
    def test_bad_cutoff(self, cutoff):
        graph, placement = _cap_case()
        for call in (enumerate_paths, count_paths):
            with pytest.raises(RoutingError, match="cutoff"):
                call(graph, placement, "CSP", cutoff=cutoff)

    def test_negative_cutoff_still_admits_no_path(self):
        graph, placement = _cap_case()
        with pytest.raises(RoutingError, match="no measurement path"):
            count_paths(graph, placement, "CSP", cutoff=-1)
