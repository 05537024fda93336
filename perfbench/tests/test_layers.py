from __future__ import annotations

import json
import os

from conftest import ROOT
from layers import PER_LAYER, layer_metrics, new_counts

_SEARCH = {"subsets_enumerated": 0, "block_rows_pruned": 0}


def test_benchmark_json_lists_exactly_the_traced_per_layer_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = json.load(handle)["per_layer"]
    assert [(m["name"], m["unit"]) for m in listed] == list(PER_LAYER)


def test_share_span_reads_its_self_time_over_the_traced_wall() -> None:
    metrics = layer_metrics({"tomography.localize": 0.5}, 2.0, new_counts(), _SEARCH,
                            0, 0, 1, [])
    assert metrics["tomography.localize_share"] == 0.25


def test_layer_without_spans_reads_a_zero_share() -> None:
    metrics = layer_metrics({"core.search": 1.0}, 2.0, new_counts(), _SEARCH, 0, 0, 0, [])
    assert metrics["routing.evolve_share"] == 0.0
