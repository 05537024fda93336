"""Correctness gate, checked outside the timed window.

Each check returns a list of problems; an empty list means it passed.  The
paper invariants hold on every seed; the committed digests in
``digests.json`` pin every report at the default seed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

from stats import digest


class GateFailure(Exception):
    """The program's outputs are wrong; the run must not report numbers."""


DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def check_digest(workload: str, payload: Any) -> List[str]:
    with open(DIGESTS, encoding="utf-8") as handle:
        expected = json.load(handle).get(workload)
    actual = digest(payload)
    if expected != actual:
        return [f"report digest {actual} != committed {expected}"]
    return []


def _theorem_mu(document: Dict[str, Any]) -> Optional[int]:
    """µ the paper proves for a chi_g grid spec (Theorems 4.8/4.9), else None."""
    if document["placement"]["strategy"] != "chi_g":
        return None
    topology = document["topology"]
    if topology["name"] == "directed_grid":
        return 2
    if topology["name"] == "directed_hypergrid":
        return topology["params"]["d"]
    return None


def check_reports(document: Dict[str, Any], analyses: Optional[Dict[str, Any]]) -> List[str]:
    """Paper invariants on one spec's analysis reports."""
    label = document["label"]
    if analyses is None:
        return [f"{label}: no reports"]
    problems = []
    mu = analyses.get("mu")
    if mu is not None:
        expected = _theorem_mu(document)
        if expected is not None and (
            mu["value"] != expected or mu["searched_up_to"] != expected + 1
        ):
            problems.append(
                f"{label}: mu={mu['value']} searched_up_to={mu['searched_up_to']}, "
                f"theorem says mu={expected} searched to {expected + 1}")
        if mu.get("bound") is not None and mu["value"] > mu["bound"]:
            problems.append(f"{label}: mu={mu['value']} > structural bound {mu['bound']}")
    bounds = analyses.get("bounds")
    if mu is not None and bounds is not None and mu["value"] > bounds["combined"]:
        problems.append(f"{label}: mu={mu['value']} > bounds.combined {bounds['combined']}")
    localization = analyses.get("localization")
    if localization is not None and localization["failure_size"] <= localization["mu"]:
        if localization["unique_rate"] != 1.0:
            problems.append(
                f"{label}: unique_rate={localization['unique_rate']} with failure "
                f"size {localization['failure_size']} <= mu={localization['mu']}")
    return problems


def check_batch(documents: Sequence[Dict[str, Any]],
                reports: Sequence[Dict[str, Any]]) -> List[str]:
    problems = []
    for document, report in zip(documents, reports):
        problems += check_reports(document, report["analyses"])
    return problems


def inprocess_reports(document: Dict[str, Any]) -> Dict[str, Any]:
    """``Scenario(spec).run_all()`` in this process, as report dicts."""
    from repro import Scenario, ScenarioSpec

    reports = Scenario(ScenarioSpec.from_dict(document)).run_all()
    return {name: report.to_dict() for name, report in reports.items()}


def check_served(document: Dict[str, Any], expected: Dict[str, Any],
                 body: Dict[str, Any]) -> List[str]:
    from repro import ScenarioSpec

    if body.get("analyses") != expected:
        return [f"{document['label']}: served analyses differ from Scenario.run_all()"]
    if body.get("spec") != ScenarioSpec.from_dict(document).to_dict():
        return [f"{document['label']}: served spec differs from the request"]
    return []


def replay_churn(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The churn steps in-process, each checked against a rebuild of its spec
    (the runner's ``--churn-verify`` rule); raises GateFailure on divergence."""
    from repro import DeltaSpec, Scenario, ScenarioSpec

    scenario = Scenario(ScenarioSpec.from_dict(document["base"]))
    steps = []
    for step in range(len(document["deltas"]) + 1):
        if step:
            scenario = scenario.evolve(DeltaSpec.from_dict(document["deltas"][step - 1]))
        mu = scenario.mu()
        rebuilt = Scenario(ScenarioSpec.from_dict(scenario.spec.to_dict()))
        if (mu.to_dict() != rebuilt.mu().to_dict()
                or scenario.measurement().to_dict() != rebuilt.measurement().to_dict()):
            raise GateFailure(f"churn step {step} diverges from a rebuild of its spec")
        steps.append({"mu": mu.value, "searched_up_to": mu.searched_up_to,
                      "n_paths": mu.n_paths, "spec": scenario.spec.to_dict()})
    return steps


def check_stream(lines: Sequence[Dict[str, Any]], expected: Sequence[Dict[str, Any]]) -> List[str]:
    steps = [line for line in lines if "step" in line]
    if len(steps) != len(expected) or not lines or not lines[-1].get("done"):
        return [f"churn stream ended after {len(steps)} of {len(expected)} steps"]
    for line, want in zip(steps, expected):
        got = {key: line.get(key) for key in want}
        if got != want:
            return [f"churn step {line['step']} differs from the in-process evolve"]
    return []
