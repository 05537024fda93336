from __future__ import annotations

import random

import pytest

from child import drive
from layers import new_counts
from stats import digest
from workloads import churn_deltas


def _triangle():
    return ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]


def _line():
    return ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]


def _square():
    return ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]


def _apply(nodes, edges, inputs, outputs, deltas):
    """Replay deltas on a plain edge set, failing on any invalid edit."""
    present = {frozenset(edge) for edge in edges}
    monitors = set(inputs) | set(outputs)
    for delta in deltas:
        for link in delta.get("remove_links", []):
            assert frozenset(link) in present, f"removes missing link {link}"
            present.discard(frozenset(link))
        for link in delta.get("add_links", []):
            assert frozenset(link) not in present, f"adds present link {link}"
            present.add(frozenset(link))
        for node in delta.get("add_inputs", []) + delta.get("add_outputs", []):
            assert node not in monitors and node in nodes
            monitors.add(node)
    return present


class TestChurnDeltas:
    @pytest.mark.parametrize("seed", range(30))
    def test_deltas_never_remove_missing_or_add_present_links(self, seed: int) -> None:
        nodes, edges = _square()
        deltas = churn_deltas(nodes, edges, ["a"], ["d"], random.Random(seed), 12)
        _apply(nodes, edges, ["a"], ["d"], deltas)

    @pytest.mark.parametrize("seed", range(30))
    def test_triangle_deltas_keep_the_graph_connected(self, seed: int) -> None:
        nodes, edges = _triangle()
        deltas = churn_deltas(nodes, edges, ["a"], ["c"], random.Random(seed), 8)
        present = _apply(nodes, edges, ["a"], ["c"], deltas)
        assert len(present) >= 2

    def test_same_seed_gives_the_same_deltas(self) -> None:
        nodes, edges = _line()
        first = churn_deltas(nodes, edges, ["a"], ["d"], random.Random(5), 6)
        assert first == churn_deltas(nodes, edges, ["a"], ["d"], random.Random(5), 6)

    def test_scenario_evolve_accepts_every_generated_delta(self) -> None:
        from repro import Scenario, ScenarioSpec

        nodes, edges = _square()
        spec = ScenarioSpec.from_dict({
            "topology": {"name": "graph", "params": {"nodes": nodes,
                                                     "edges": [list(e) for e in edges]}},
            "placement": {"strategy": "explicit",
                          "params": {"inputs": ["a"], "outputs": ["c"]}},
        })
        scenario = Scenario(spec)
        for delta in churn_deltas(nodes, edges, ["a"], ["c"], random.Random(3), 4):
            scenario = scenario.evolve(delta)
        assert scenario.mu().n_paths > 0


class TestDigestStability:
    def test_two_runs_of_a_tiny_spec_report_the_same_digest(self) -> None:
        document = {
            "label": "H_3 chi_g",
            "topology": {"name": "directed_grid", "params": {"n": 3}},
            "placement": {"strategy": "chi_g", "params": {}},
            "analyses": [{"analysis": "mu", "params": {}}],
        }
        runs = [drive(document, lambda name: __import__("contextlib").nullcontext(),
                      new_counts()) for _ in range(2)]
        assert digest(runs[0]) == digest(runs[1])
