"""Throughput accounting.

The paper measures throughput as "the number of joining tuples reported
per second".  :class:`ThroughputSeries` buckets reported results into
one-second bins of simulated time, from which both the steady-state rate
and the full time series (for saturation analysis) are available.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple


class ThroughputSeries:
    """Per-second result counts over simulated time."""

    def __init__(self) -> None:
        self._buckets: Counter = Counter()
        self.total = 0
        self.last_time = 0.0

    def record(self, time: float, count: int = 1) -> None:
        if count <= 0:
            return
        self._buckets[int(time)] += count
        self.total += count
        self.last_time = max(self.last_time, time)

    def series(self) -> List[Tuple[int, int]]:
        """Sorted ``(second, results)`` pairs (empty seconds omitted)."""
        return sorted(self._buckets.items())

    def sustained_rate(self) -> float:
        """Mean over the busiest half of active seconds (at least one).

        A saturation-oriented statistic: start-up and drain-down seconds
        do not dilute it.
        """
        if not self._buckets:
            return 0.0
        counts = sorted(self._buckets.values(), reverse=True)
        keep = max(1, len(counts) // 2)
        return sum(counts[:keep]) / keep
