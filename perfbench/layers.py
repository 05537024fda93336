"""Per-layer metrics of the traced run: span self times and layer counts.

Counts come from public surfaces the program already has:
``search_counters()``, ``cache_stats()``, ``PathSet.approximate_nbytes()``,
``SignatureEngine.n_columns``, ``ScenarioCache.stats()`` via ``/metrics``.
``routing.paths``, ``engine.columns`` and ``core.subsets_enumerated`` repeat
exactly from run to run for a seed, so they are reported as counts.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Tuple

OUT_DIR = ".perfbench"
#: Traced runs alternate this many untraced and traced drives; the tracing
#: overhead is the ratio of their median walls.
TRACE_PAIRS = 2

LAYERS = ("topology", "routing", "failures", "engine", "core", "tomography",
          "api", "service")

#: Spans that some workloads never enter, listed by their share of the
#: traced wall (their absolute time is in ``DETAIL``).
SHARE_SPANS = ("routing.evolve", "tomography.measure", "tomography.localize")

#: (name, unit) of the per-layer metrics in BENCHMARK.json, in its order.
#: One rule: no time listed here reads 0 on any workload, because a time
#: that reads the same on every run is refused.  So absolute times are
#: listed only for spans that every workload enters; every layer, and each
#: span of ``SHARE_SPANS``, is listed as a share of the traced wall, and
#: shares, counts and ratios may read 0 where their layer does no work.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((f"{layer}.share", "ratio") for layer in LAYERS),
    *((f"{span}_share", "ratio") for span in SHARE_SPANS),
    ("topology.build_s", "s"),
    ("routing.enumerate_s", "s"),
    ("routing.paths", "count"),
    ("routing.paths_per_s", "1/s"),
    ("routing.pathset_mb", "MB"),
    ("failures.universe_s", "s"),
    ("failures.elements", "count"),
    ("engine.build_s", "s"),
    ("engine.columns", "count"),
    ("engine.compress_ratio", "ratio"),
    ("engine.pathset_cache_hit_rate", "ratio"),
    ("core.search_s", "s"),
    ("core.subsets_enumerated", "count"),
    ("core.subsets_per_s", "1/s"),
    ("core.block_rows_pruned_ratio", "ratio"),
    ("tomography.trials", "count"),
    ("tomography.unique_rate", "ratio"),
    ("tomography.mean_ambiguity", "count"),
    ("api.parse_ms", "ms"),
    ("api.serialize_ms", "ms"),
    ("api.response_kb", "KiB"),
    ("service.cache_hit_rate", "ratio"),
    ("service.cache_evictions", "count"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Printed with the per-layer metrics but not in BENCHMARK.json: times of
#: spans that some workloads never enter (they read exactly 0 there), and
#: the server's 429 count, which the closed loop cannot drive above 0
#: (``service.MAX_INFLIGHT`` exceeds its connections).
DETAIL: Tuple[Tuple[str, str], ...] = (
    ("routing.evolve_s", "s"),
    ("core.bounds_s", "s"),
    ("tomography.campaign_s", "s"),
    ("tomography.measure_s", "s"),
    ("tomography.localize_s", "s"),
    ("tomography.localize_ms_per_trial", "ms"),
    ("tomography.report_s", "s"),
    ("service.cache_s", "s"),
    ("service.transport_ms", "ms"),
    ("service.rejected", "count"),
)

#: span name -> per-layer metric carrying its summed self time in seconds
SPAN_SECONDS = {
    "topology.build": "topology.build_s",
    "routing.enumerate": "routing.enumerate_s",
    "routing.evolve": "routing.evolve_s",
    "failures.universe": "failures.universe_s",
    "engine.build": "engine.build_s",
    "core.search": "core.search_s",
    "core.bounds": "core.bounds_s",
    "tomography.campaign": "tomography.campaign_s",
    "tomography.measure": "tomography.measure_s",
    "tomography.localize": "tomography.localize_s",
    "tomography.report": "tomography.report_s",
    "service.get_or_compile": "service.cache_s",
}

#: Analysis name -> span name of its call (the layer is the prefix).
ANALYSIS_SPANS = {
    "mu": "core.search",
    "truncated": "core.search",
    "separability": "core.search",
    "bounds": "core.bounds",
    "localization": "tomography.campaign",
    "measurement": "tomography.report",
}

COUNT_KEYS = ("routing.paths", "routing.pathset_bytes", "failures.elements",
              "engine.columns", "api.response_bytes")


def new_counts() -> Dict[str, int]:
    return dict.fromkeys(COUNT_KEYS, 0)


def add_scenario_counts(counts: Dict[str, int], scenario) -> None:
    """Add one compiled scenario's path, element and column counts."""
    counts["routing.paths"] += scenario.pathset.n_paths
    counts["routing.pathset_bytes"] += scenario.pathset.approximate_nbytes()
    counts["failures.elements"] += len(scenario.universe.elements)
    counts["engine.columns"] += scenario.engine.n_columns


def run_analyses(scenario, span) -> Dict[str, Any]:
    """The spec's analyses as report dicts, keyed as ``Scenario.run_all``
    keys them, each call inside a span of its layer."""
    reports: Dict[str, Any] = {}
    for request in scenario.spec.analyses:
        key, counter = request.analysis, 2
        while key in reports:
            key, counter = f"{request.analysis}#{counter}", counter + 1
        with span(ANALYSIS_SPANS[request.analysis]):
            reports[key] = scenario.run_analysis(request)
    return reports


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(self_s: Dict[str, float], traced_wall: float, counts: Dict[str, float],
                  search: Dict[str, int], cache_hits: int, cache_misses: int,
                  localize_calls: int, localizations: Iterable[dict]) -> Dict[str, float]:
    """Every per-layer metric a traced batch or replay can give; the
    service-only ones start at zero and are filled in by the caller."""
    metrics = {name: 0.0 for name, _ in PER_LAYER + DETAIL}
    for layer, seconds in by_layer(self_s).items():
        if layer in LAYERS:
            metrics[f"{layer}.share"] = _ratio(seconds, traced_wall)
    for span, metric in SPAN_SECONDS.items():
        metrics[metric] = self_s.get(span, 0.0)
    for span in SHARE_SPANS:
        metrics[f"{span}_share"] = _ratio(self_s.get(span, 0.0), traced_wall)
    metrics["api.parse_ms"] = 1000 * self_s.get("api.parse", 0.0)
    metrics["api.serialize_ms"] = 1000 * self_s.get("api.serialize", 0.0)
    subsets = search["subsets_enumerated"]
    localizations = list(localizations)
    metrics.update({
        "routing.paths": counts["routing.paths"],
        "routing.paths_per_s": _ratio(counts["routing.paths"], metrics["routing.enumerate_s"]),
        "routing.pathset_mb": counts["routing.pathset_bytes"] / 2**20,
        "failures.elements": counts["failures.elements"],
        "engine.columns": counts["engine.columns"],
        "engine.compress_ratio": _ratio(counts["routing.paths"], counts["engine.columns"]),
        "engine.pathset_cache_hit_rate": _ratio(cache_hits, cache_hits + cache_misses),
        "core.subsets_enumerated": subsets,
        "core.subsets_per_s": _ratio(subsets, metrics["core.search_s"]),
        "core.block_rows_pruned_ratio": _ratio(search["block_rows_pruned"], subsets),
        "tomography.trials": localize_calls,
        "tomography.localize_ms_per_trial": _ratio(
            1000 * metrics["tomography.localize_s"], localize_calls),
        "tomography.unique_rate": _ratio(
            sum(loc["unique_rate"] for loc in localizations), len(localizations)),
        "tomography.mean_ambiguity": _ratio(
            sum(loc["mean_ambiguity"] for loc in localizations), len(localizations)),
        "api.response_kb": counts["api.response_bytes"] / 1024,
    })
    return metrics


def by_layer(self_s: Dict[str, float]) -> Dict[str, float]:
    """Summed self time per layer (the span-name prefix)."""
    totals: Dict[str, float] = {}
    for name, seconds in self_s.items():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def write_spans(spans: Iterable, name: str) -> str:
    """Write the run's spans (name, start, end, parent, request) as JSON."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([span if isinstance(span, dict) else vars(span) for span in spans], handle)
    return path
