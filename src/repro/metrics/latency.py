"""Result-latency tracking.

The motivating applications (arbitrage, intrusion tracking) care how
*quickly* a join result surfaces after the pair physically exists -- i.e.
after its later member arrived somewhere in the system.  The tracker
keeps exact running aggregates (count/mean/max) plus a fixed-size
deterministic sample for percentile estimates, so memory stays O(1)
regardless of result volume and runs stay reproducible.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError

_KNUTH_MULTIPLIER = 2654435761
"""Multiplicative-hash constant; spreads replacement slots deterministically."""


class LatencyTracker:
    """Streaming latency statistics with a bounded sample."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.capacity = capacity
        self._samples: List[float] = []
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0

    def record(self, latency: float) -> None:
        """Add one latency observation (negative values are clamped to 0;
        they can only arise from floating-point jitter at zero)."""
        value = max(0.0, float(latency))
        self.count += 1
        self.total += value
        self.maximum = max(self.maximum, value)
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            slot = (self.count * _KNUTH_MULTIPLIER) % self.capacity
            self._samples[slot] = value

    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (0..100) from the retained sample."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError("percentile must lie in [0, 100]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self) -> dict:
        """Flat summary for result reporting."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.maximum,
        }
