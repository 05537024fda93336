"""Whole-spec benchmark of the tomography engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (``src/repro`` must exist).  With
``--trace 0`` it measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; with ``--trace 1`` it also runs the workload once with spans
around every layer call and reports the per-layer breakdown.  Human-readable
lines come first; the last line is one JSON object.  The exit code is 1 when
the correctness gate fails, 2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import service_mix  # noqa: E402
import workloads  # noqa: E402
from layers import (DETAIL, PER_LAYER, TRACE_PAIRS, by_layer, layer_metrics,  # noqa: E402
                    write_spans)
from stats import MIN_TAIL_SAMPLES, Outcomes, digest, percentile  # noqa: E402

#: Repetitions per untraced batch run at least, whatever ``--seconds`` says.
MIN_REPS = 3
CHILD_TIMEOUT_S = 170

#: Gated end-to-end metrics: defined on every workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: Printed for service-mix only (see perfbench/README.md).
SERVICE_ONLY = {
    "requests_per_s": "1/s", "request_p50_ms": "ms", "request_p95_ms": "ms",
    "churn_step_p50_ms": "ms", "churn_step_p95_ms": "ms",
}


def child_env(root: str) -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


# -- batch workloads -------------------------------------------------------------

def run_child(root: str, workload: str, seed: int,
              mode: str) -> Tuple[float, Optional[Dict[str, Any]]]:
    """One repetition in a fresh interpreter: (set-up seconds, child result).
    ``mode`` is ``cli``, ``drive``, ``trace`` or ``setup`` (see child.py);
    a ``setup`` child has no result."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), mode],
        cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        first = process.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = process.stdout.read()
    finally:
        process.stdout.close()
        try:
            code = process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            code = process.wait()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"batch child exited {code} before reporting")
    return setup_s, json.loads(rest.strip().splitlines()[-1]) if rest.strip() else None


def batch_gate(workload: str, seed: int, results: List[Dict[str, Any]]) -> str:
    """Every repetition (traced or not) reported the same, correct reports."""
    digests = {digest(result["reports"]) for result in results}
    if len(digests) != 1:
        raise gate.GateFailure(f"reports differ between repetitions: {sorted(digests)}")
    problems = gate.check_batch(results[0]["documents"], results[0]["reports"])
    if seed == workloads.DEFAULT_SEED:
        problems += gate.check_digest(workload, results[0]["reports"])
    if problems:
        raise gate.GateFailure("; ".join(problems))
    return digests.pop()


def run_batch(root: str, workload: str, seed: int, seconds: float, traced: bool,
              outcomes: Outcomes):
    setups, results = [], []
    started = time.perf_counter()
    while len(results) < MIN_REPS or time.perf_counter() - started < seconds:
        setup_s, result = run_child(root, workload, seed, "cli")
        setups.append(setup_s)
        results.append(result)
        if traced:  # one untraced repetition; the rest of the run is traced
            break
        # A set-up-only child between repetitions doubles the set-up samples
        # at a quarter of a repetition's cost.
        setups.append(run_child(root, workload, seed, "setup")[0])
    drives, traces = [], []
    for _ in range(TRACE_PAIRS if traced else 0):
        drives.append(run_child(root, workload, seed, "drive")[1])
        traces.append(run_child(root, workload, seed, "trace")[1])
    for result in results + drives + traces:
        for report in result["reports"]:
            outcomes.record(report["analyses"] is not None)
        for error in result["errors"]:
            print(error, file=sys.stderr)
    report_digest = batch_gate(workload, seed, results + drives + traces)
    samples = {
        "setup_s": setups,
        "wall_s": [result["wall_s"] for result in results],
        "peak_rss_mb": [result["peak_rss_mb"] for result in results],
    }
    return samples, report_digest, _batch_layers(workload, seed, drives, traces) if traced else None


def _batch_layers(workload: str, seed: int, drives: List[Dict[str, Any]],
                  traces: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer metrics of the first traced repetition; the overhead is the
    median traced wall over the median wall of the same calls untraced."""
    traced = traces[0]
    metrics = layer_metrics(
        traced["span_self_s"], traced["wall_s"], traced["counts"], traced["search"],
        traced["cache_hits"], traced["cache_misses"],
        sum(1 for span in traced["spans"] if span["name"] == "tomography.localize"),
        [report["analyses"]["localization"] for report in traced["reports"]
         if "localization" in report["analyses"]],
    )
    metrics["trace.uncovered_s"] = traced["uncovered_s"]
    metrics["trace.overhead_ratio"] = (
        statistics.median(t["wall_s"] for t in traces)
        / statistics.median(d["wall_s"] for d in drives))
    write_spans(traced["spans"], f"{workload}-{seed}")
    return {"metrics": metrics, "layer_self_s": by_layer(traced["span_self_s"])}


# -- output ------------------------------------------------------------------------

def summarise(name: str, values: List[float]) -> Tuple[Optional[float], str]:
    """The reported value of a metric and its sample-count note."""
    if name.endswith("_p95_ms"):
        return percentile(values, 0.95), (
            f"(n={len(values)}; reported when >= {MIN_TAIL_SAMPLES} lie beyond)")
    if name.endswith("_p50_ms"):
        return percentile(values, 0.5), f"(n={len(values)})"
    if name == "requests_per_s":
        answered, seconds = values
        return answered / seconds, f"(n={int(answered)} requests in {seconds:.3f} s)"
    return statistics.median(values), f"(median of n={len(values)})"


def line(name: str, value: Optional[float], unit: str, note: str = "") -> str:
    shown = "not reported" if value is None else f"{value:.6g} {unit}"
    return f"  {name:<34} {shown:<24} {note}".rstrip()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from a source checkout; src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    traced = bool(args.trace)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    outcomes = Outcomes()
    try:
        if args.workload in workloads.BATCH_WORKLOADS:
            samples, report_digest, layers = run_batch(
                root, args.workload, args.seed, args.seconds, traced, outcomes)
        else:
            samples, report_digest, layers = service_mix.run(
                root, args.seed, args.seconds, traced, outcomes)
    except gate.GateFailure as exc:
        print(f"correctness gate FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": max(1, outcomes.attempted),
                          "failed": outcomes.failed, "metrics": {}}))
        return 1
    print("end to end (tracing off):")
    values = {}
    for name, unit in {**END_TO_END, **SERVICE_ONLY}.items():
        if name in samples:
            values[name], note = summarise(name, samples[name])
            print(line(name, values[name], unit, note))
    print(f"  {'error_rate':<34} {outcomes.error_rate:<24.6g} "
          f"({outcomes.failed} failed / {outcomes.attempted} attempted)")
    print(f"correctness gate passed; report digest {report_digest}")
    if traced:
        print("self time per layer (traced run):")
        for layer, seconds in sorted(layers["layer_self_s"].items()):
            print(line(layer, seconds, "s"))
        print("per layer (traced run; times are self times):")
        for name, unit in PER_LAYER + DETAIL:
            print(line(name, layers["metrics"][name], unit))
        metrics = {name: {"value": layers["metrics"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": True, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
