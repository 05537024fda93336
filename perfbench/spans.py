"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, request id).  A span's *layer* is the
part of its name before the first dot (``routing.enumerate`` belongs to
``routing``).  Spans are kept in memory and written out only when the run
ends (``layers.write_spans``), so recording costs a ``perf_counter`` pair
and a list append.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]


class Tracer:
    """Records nested spans; one stack per thread, one span list per tracer."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            record = Span(len(self.spans), name, time.perf_counter(), 0.0,
                          parent.id if parent else None, request)
            self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, owner: type, attribute: str, name: str) -> None:
        """Record a span around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attribute, traced)


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children that overlap each other (concurrent work under one parent) are
    counted once; a child's interval is clipped to its parent's.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            parent = by_id[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return {
        span.id: (span.end - span.start) - union_length(children.get(span.id, []))
        for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    names = {span.id: span.name for span in spans}
    totals: Dict[str, float] = {}
    for span_id, seconds in self_times(spans).items():
        totals[names[span_id]] = totals.get(names[span_id], 0.0) + seconds
    return totals


def uncovered(spans: Sequence[Span], start: float, end: float) -> float:
    """Wall time in ``[start, end]`` that no top-level span covers."""
    top = [
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.parent is None and span.end > start and span.start < end
    ]
    return (end - start) - union_length(top)
