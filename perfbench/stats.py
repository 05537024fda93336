"""Percentiles, failure accounting and report digests."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from typing import Any, Optional, Sequence

#: A percentile above the median is reported only with this many samples
#: strictly beyond it; below that the tail is too thin to read.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or ``None`` when the sample cannot
    support it: empty, or (for ``q`` above the median) fewer than
    ``MIN_TAIL_SAMPLES`` values lie strictly beyond the chosen rank."""
    n = len(values)
    if n == 0:
        return None
    if q == 0.5:
        return statistics.median(values)
    rank = max(1, math.ceil(q * n))
    if q > 0.5 and n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


@dataclass
class Outcomes:
    """Attempted and failed operations of one run.

    Every operation the benchmark issues is attempted: refused (429),
    timed-out and failed ones included, so ``error_rate`` never shrinks by
    leaving refusals out of the denominator.
    """

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def merge(self, other: "Outcomes") -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def digest(payload: Any) -> str:
    """SHA-256 of a JSON document in canonical form."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
