from __future__ import annotations

import pytest

from spans import Span, Tracer, self_time_by_name, self_times, uncovered, union_length


def _span(id_: int, name: str, start: float, end: float, parent=None) -> Span:
    return Span(id_, name, start, end, parent, None)


class TestSelfTime:
    def test_nested_child_is_subtracted_from_its_parent(self) -> None:
        spans = [_span(0, "core.search", 0.0, 10.0), _span(1, "engine.build", 2.0, 5.0, 0)]
        assert self_times(spans) == {0: 7.0, 1: 3.0}

    def test_overlapping_children_are_counted_once(self) -> None:
        spans = [
            _span(0, "service.request", 0.0, 10.0),
            _span(1, "routing.enumerate", 1.0, 6.0, 0),
            _span(2, "routing.enumerate", 4.0, 8.0, 0),
        ]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_child_outliving_its_parent_is_clipped(self) -> None:
        spans = [_span(0, "api.parse", 0.0, 4.0), _span(1, "topology.build", 3.0, 9.0, 0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_self_time_sums_per_name(self) -> None:
        spans = [_span(0, "tomography.localize", 0.0, 1.0),
                 _span(1, "tomography.localize", 2.0, 4.0)]
        assert self_time_by_name(spans) == {"tomography.localize": 3.0}


class TestUncovered:
    def test_gaps_between_top_level_spans_are_uncovered(self) -> None:
        spans = [_span(0, "a.x", 1.0, 3.0), _span(1, "b.y", 5.0, 6.0)]
        assert uncovered(spans, 0.0, 10.0) == pytest.approx(7.0)

    def test_union_of_disjoint_and_overlapping_intervals(self) -> None:
        assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)


class TestTracer:
    def test_nested_span_records_its_parent(self) -> None:
        tracer = Tracer()
        with tracer.span("replay.analyze", request="op0"):
            with tracer.span("api.parse"):
                pass
        assert (tracer.spans[1].parent, tracer.spans[1].request) == (0, "op0")

    def test_wrap_records_a_span_per_call_and_keeps_the_result(self) -> None:
        class Layer:
            def work(self, value: int) -> int:
                return value + 1

        tracer = Tracer()
        tracer.wrap(Layer, "work", "core.search")
        assert (Layer().work(1), [s.name for s in tracer.spans]) == (2, ["core.search"])
