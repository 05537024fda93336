"""Tests for the Boolean tomography substrate (Equation 1) and localisation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import IdentifiabilityError
from repro.monitors.grid_placement import chi_g
from repro.monitors.placement import MonitorPlacement
from repro.routing.paths import PathSet, enumerate_paths
from repro.tomography.boolean_system import (
    BooleanEquation,
    BooleanSystem,
    build_system,
    measurement_vector,
)
from repro.tomography.inference import (
    consistent_failure_sets,
    identifiability_implies_unique_localization,
    localization_is_unique,
    localize_failures,
)
from repro.tomography.scenario import TomographySession
from repro.topology.grids import directed_grid
from repro.topology.lines import line_graph


def toy_pathset() -> PathSet:
    return PathSet(
        nodes=("a", "b", "c", "d"),
        paths=(("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")),
    )


class TestMeasurementVector:
    def test_no_failures_all_zero(self):
        assert measurement_vector(toy_pathset(), set()) == (0, 0, 0, 0)

    def test_single_failure(self):
        assert measurement_vector(toy_pathset(), {"b"}) == (1, 1, 0, 0)

    def test_multiple_failures_or_semantics(self):
        assert measurement_vector(toy_pathset(), {"a", "d"}) == (1, 0, 1, 1)

    def test_unknown_failure_node_rejected(self):
        with pytest.raises(IdentifiabilityError):
            measurement_vector(toy_pathset(), {"z"})


class TestBooleanSystem:
    def test_equation_validation(self):
        with pytest.raises(IdentifiabilityError):
            BooleanEquation(("a", "b"), 2)

    def test_equation_satisfaction(self):
        equation = BooleanEquation(("a", "b"), 1)
        assert equation.is_satisfied_by({"a"})
        assert not equation.is_satisfied_by(set())

    def test_system_from_measurements_length_check(self):
        with pytest.raises(IdentifiabilityError):
            BooleanSystem.from_measurements(toy_pathset(), (0, 1))

    def test_true_failure_set_satisfies_system(self):
        system = build_system(toy_pathset(), {"b", "d"})
        assert system.is_satisfied_by({"b", "d"})

    def test_healthy_nodes_on_zero_paths(self):
        system = build_system(toy_pathset(), {"d"})
        # Paths a-b, b-c, a-c all measure 0, so a, b, c are known healthy.
        assert system.healthy_nodes() == frozenset({"a", "b", "c"})
        assert system.candidate_nodes() == frozenset({"d"})

    def test_solutions_contain_truth(self):
        system = build_system(toy_pathset(), {"b"})
        assert frozenset({"b"}) in set(system.solutions(max_failures=2))

    def test_minimal_solutions_are_minimal(self):
        system = build_system(toy_pathset(), {"b"})
        minimal = system.minimal_solutions(max_failures=2)
        for first in minimal:
            for second in minimal:
                if first != second:
                    assert not first < second

    def test_variables_cover_all_path_nodes(self):
        system = build_system(toy_pathset(), set())
        assert system.variables == frozenset({"a", "b", "c", "d"})
        assert system.n_equations == 4


class TestLocalization:
    def test_unique_localisation_of_single_failure(self):
        pathset = toy_pathset()
        observations = measurement_vector(pathset, {"b"})
        result = localize_failures(pathset, observations, max_failures=1)
        assert result.unique
        assert result.localized_set == frozenset({"b"})

    def test_ambiguity_reported(self):
        # Paths: only (a,b).  Failing it is explained by {a} or {b}.
        pathset = PathSet(nodes=("a", "b"), paths=(("a", "b"),))
        observations = (1,)
        result = localize_failures(pathset, observations, max_failures=1)
        assert not result.unique
        assert result.ambiguity == 2

    def test_contains_truth(self):
        pathset = PathSet(nodes=("a", "b"), paths=(("a", "b"),))
        result = localize_failures(pathset, (1,), max_failures=1)
        assert result.contains_truth({"a"}) and result.contains_truth({"b"})

    def test_localization_is_unique_wrapper(self):
        assert localization_is_unique(toy_pathset(), {"b"})
        pathset = PathSet(nodes=("a", "b"), paths=(("a", "b"),))
        assert not localization_is_unique(pathset, {"a"})

    def test_consistent_failure_sets_filters_size(self):
        pathset = toy_pathset()
        observations = measurement_vector(pathset, {"b", "d"})
        sets = consistent_failure_sets(pathset, observations, max_failures=1)
        assert sets == ()

    def test_negative_max_failures_rejected(self):
        with pytest.raises(IdentifiabilityError):
            localize_failures(toy_pathset(), (0, 0, 0, 0), max_failures=-1)


class TestIdentifiabilityLocalizationBridge:
    def test_k_identifiable_implies_unique_localization_on_grid(self, directed_grid_3):
        """The operational meaning of Theorem 4.8: any <=2 failures on H_3
        under chi_g are uniquely localised."""
        placement = chi_g(directed_grid_3)
        pathset = enumerate_paths(directed_grid_3, placement, "CSP")
        internal = [(2, 2), (2, 3), (3, 2)]
        failure_sets = [{internal[0]}, {internal[1]}, set(internal[:2])]
        assert identifiability_implies_unique_localization(pathset, failure_sets, k=2)

    def test_size_bound_enforced(self):
        pathset = toy_pathset()
        with pytest.raises(IdentifiabilityError):
            identifiability_implies_unique_localization(pathset, [{"a", "b"}], k=1)


class TestTomographySession:
    def test_session_mu_matches_direct_computation(self, directed_grid_3):
        placement = chi_g(directed_grid_3)
        session = TomographySession(directed_grid_3, placement)
        from repro.api.scenario import Scenario

        scenario = Scenario.from_components(directed_grid_3, placement)
        assert session.mu == scenario.mu().value

    def test_measure_and_localize_roundtrip(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        failure = {(2, 2)}
        outcome = session.run_trial(failure)
        assert outcome.uniquely_identified
        assert outcome.failure_set == frozenset(failure)

    def test_measure_runs_on_the_session_engine(self, directed_grid_3):
        """A raw-columns session measures on its own engine: no default
        (compressed) engine joins the path set's memo just to measure."""
        from repro.api.scenario import Scenario
        from repro.api.spec import EngineConfig

        placement = chi_g(directed_grid_3)
        scenario = Scenario.from_components(
            directed_grid_3, placement, engine=EngineConfig(compress=False)
        )
        session = TomographySession.from_scenario(scenario)
        engines_before = dict(session.pathset._engines)
        failure = {(2, 2), (1, 3)}
        observed = session.measure(failure)
        assert session.pathset._engines == engines_before
        reference = measurement_vector(
            enumerate_paths(directed_grid_3, placement), failure
        )
        assert observed == reference
        with pytest.raises(IdentifiabilityError):
            session.measure({"ghost"})

    def test_sample_failure_set_avoids_monitors_when_possible(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        sample = session.sample_failure_set(1, rng=5)
        assert sample <= session.pathset.node_universe

    def test_sample_failure_set_size_validation(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        with pytest.raises(IdentifiabilityError):
            session.sample_failure_set(-1)
        with pytest.raises(IdentifiabilityError):
            session.sample_failure_set(100)

    def test_campaign_within_guarantee_has_perfect_rate(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        report = session.run_campaign(failure_size=1, n_trials=5, rng=1)
        assert report.unique_rate == 1.0
        assert report.mean_ambiguity == 1.0

    def test_campaign_validation(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        with pytest.raises(IdentifiabilityError):
            session.run_campaign(1, 0)

    def test_describe_mentions_mechanism(self, directed_grid_3):
        session = TomographySession(directed_grid_3, chi_g(directed_grid_3))
        assert "CSP" in session.describe()

    def test_line_topology_ambiguous_for_interior_failures(self):
        graph = line_graph(4)
        placement = MonitorPlacement.of(inputs={0}, outputs={3})
        session = TomographySession(graph, placement)
        outcome = session.run_trial({1})
        # mu = 0: the failure is detected but cannot be pinned to node 1.
        assert sum(outcome.observations) > 0
        assert not outcome.uniquely_identified


class TestRoundTripProperty:
    @given(seed=st.integers(0, 100), size=st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_truth_is_always_consistent(self, seed, size, directed_grid_3):
        """Whatever fails, the true failure set always satisfies Equation 1."""
        placement = chi_g(directed_grid_3)
        session = TomographySession(directed_grid_3, placement)
        failure = session.sample_failure_set(size, rng=seed)
        outcome = session.run_trial(failure)
        assert outcome.localization.contains_truth(failure)
