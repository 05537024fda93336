"""One batch-workload repetition in a fresh interpreter.

Run by ``run.py`` as ``python perfbench/child.py <workload> <seed> <mode>``
with ``src`` on ``PYTHONPATH``.  It imports ``repro``, generates the
workload's spec batch from the seed, prints ``ready`` (the parent times
set-up up to that line), runs the batch, and prints one JSON result line.

In mode ``cli`` each spec goes through ``run_spec_sections`` exactly as the
``--spec`` CLI runs it.  In mode ``trace`` the same specs are driven one
layer at a time (parse, graph, path set, universe, engine, each analysis,
serialise) with a span around each call, and
``TomographySession.measure``/``.localize`` are wrapped so the campaign's
trials get spans of their own.  Mode ``drive`` makes the same calls as
``trace`` without spans; the two walls give the tracing overhead.  Mode
``setup`` exits after ``ready``: it only samples the set-up time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext


def cli(document):
    from repro import ScenarioSpec
    from repro.experiments.runner import run_spec_sections

    (section,) = run_spec_sections([ScenarioSpec.from_dict(document)])
    json.dumps(section.data)
    return section.data["analyses"]


def drive(document, span, counts):
    from layers import add_scenario_counts, run_analyses
    from repro import Scenario, ScenarioSpec

    with span("api.parse"):
        spec = ScenarioSpec.from_dict(document)
    scenario = Scenario(spec)
    with span("topology.build"):
        scenario.graph  # noqa: B018 - builds graph, Agrid boost and placement
    with span("routing.enumerate"):
        scenario.pathset  # noqa: B018
    with span("failures.universe"):
        scenario.universe  # noqa: B018
    with span("engine.build"):
        scenario.engine  # noqa: B018
    reports = run_analyses(scenario, span)
    with span("api.serialize"):
        analyses = {name: report.to_dict() for name, report in reports.items()}
        text = json.dumps({"spec": spec.to_dict(), "analyses": analyses})
    add_scenario_counts(counts, scenario)
    counts["api.response_bytes"] += len(text)
    return analyses


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    import repro  # noqa: F401 - import cost is part of set-up
    from workloads import batch_specs

    documents = batch_specs(workload, seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    from layers import new_counts
    from repro.engine.cache import cache_stats
    from repro.engine.signatures import search_counters

    counts, span = new_counts(), lambda name: nullcontext()
    if mode == "trace":
        from repro.tomography.scenario import TomographySession
        from spans import Tracer, self_time_by_name, uncovered

        tracer = Tracer()
        span = tracer.span
        tracer.wrap(TomographySession, "measure", "tomography.measure")
        tracer.wrap(TomographySession, "localize", "tomography.localize")
    search_before = search_counters().as_dict()
    results, errors = [], []
    started = time.perf_counter()
    for document in documents:
        try:
            if mode == "cli":
                analyses = cli(document)
            else:
                analyses = drive(document, span, counts)
        except Exception:  # a failed spec is counted; the batch goes on
            errors.append(traceback.format_exc())
            analyses = None
        results.append({"label": document["label"], "analyses": analyses})
    ended = time.perf_counter()
    out = {
        "wall_s": ended - started,
        "documents": documents,
        "reports": results,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if mode == "trace":
        search_after = search_counters().as_dict()
        cache = cache_stats()
        out.update(
            span_self_s=self_time_by_name(tracer.spans),
            uncovered_s=uncovered(tracer.spans, started, ended),
            counts=counts,
            search={k: search_after[k] - search_before[k] for k in search_after},
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            spans=[vars(span) for span in tracer.spans],
        )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
