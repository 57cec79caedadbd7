"""The AGMS (tug-of-war) sketch.

A sketch is an ``s1 x s0`` array of counters.  Counter (i, j) maintains
``sum_v f(v) * xi_ij(v)`` where ``f`` is the frequency vector of the
sliding window and ``xi_ij`` is a 4-wise independent +/-1 hash.  For two
sketches built with the *same* hash bank,

* ``mean_j(X_ij * Y_ij)`` is an unbiased estimate of the join size
  ``f . g`` for each group i, and
* the median over the ``s1`` groups boosts the confidence (median of
  means).

The paper sizes sketches by total entries ``s = s0 * s1`` with a 5:1 ratio
between s0 and s1 (Section 6), which :meth:`SketchShape.from_total`
reproduces.  Sliding-window maintenance is a signed update: +1 on arrival,
-1 on eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._rng import ensure_rng
from repro.errors import SummaryError
from repro.sketches.hashing import FourWiseHashFamily


@dataclass(frozen=True)
class SketchShape:
    """Dimensions of an AGMS sketch: s1 median groups of s0 averaged copies."""

    s0: int
    s1: int

    def __post_init__(self) -> None:
        if self.s0 < 1 or self.s1 < 1:
            raise SummaryError("sketch dimensions must be >= 1")

    @property
    def total(self) -> int:
        return self.s0 * self.s1

    @classmethod
    def from_total(cls, total: int, ratio: int = 5) -> "SketchShape":
        """Shape with ~``total`` entries preserving the paper's s0:s1 = 5:1.

        With s0 = ratio * s1, total = ratio * s1^2; s1 is rounded to keep
        the entry count as close to the budget as possible without
        exceeding it (and never below one row of each).
        """
        if total < 1:
            raise SummaryError("total sketch size must be >= 1")
        if ratio < 1:
            raise SummaryError("ratio must be >= 1")
        s1 = max(1, int(np.sqrt(total / ratio)))
        s0 = max(1, total // s1)
        return cls(s0=s0, s1=s1)


class AgmsSketch:
    """One node's sketch of its window's attribute-frequency vector."""

    def __init__(
        self,
        shape: SketchShape,
        hashes: Optional[FourWiseHashFamily] = None,
        rng=None,
    ) -> None:
        self.shape = shape
        if hashes is None:
            hashes = FourWiseHashFamily(shape.total, rng=ensure_rng(rng))
        if hashes.rows != shape.total:
            raise SummaryError(
                "hash bank has %d rows, sketch needs %d" % (hashes.rows, shape.total)
            )
        self.hashes = hashes
        self._counters = np.zeros(shape.total, dtype=np.float64)
        self.updates = 0

    def spawn_compatible(self) -> "AgmsSketch":
        """A fresh zero sketch sharing this sketch's hash bank.

        Join-size estimation only works between sketches built with the
        same hash functions; in the distributed system the query
        dissemination step seeds all nodes identically.
        """
        return AgmsSketch(self.shape, hashes=self.hashes)

    def update(self, key: int, delta: int = 1) -> None:
        """Apply a frequency change: +1 on arrival, -1 on eviction."""
        if delta == 0:
            return
        self._counters += delta * self.hashes.signs(key)
        self.updates += 1

    def snapshot_counters(self) -> np.ndarray:
        """Flat counter copy -- the wire representation."""
        return self._counters.copy()

    def load_counters(self, counters) -> None:
        """Replace state with a received snapshot."""
        arr = np.asarray(counters, dtype=np.float64).reshape(-1)
        if arr.shape != self._counters.shape:
            raise SummaryError("snapshot shape mismatch")
        self._counters = arr.copy()

    def checkpoint_state(self) -> dict:
        """Exact snapshot for repro.recovery (counters + update count)."""
        from repro.recovery.checkpoint import encode_array

        return {"counters": encode_array(self._counters), "updates": self.updates}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`checkpoint_state` on a same-shape sketch."""
        from repro.recovery.checkpoint import decode_array

        counters = decode_array(state["counters"])
        if counters.shape != self._counters.shape:
            raise SummaryError("checkpoint shape mismatch")
        self._counters = counters
        self.updates = int(state["updates"])

    def join_size_estimate(self, other: "AgmsSketch") -> float:
        """Median-of-means estimate of the join size with ``other``."""
        self._check_compatible(other)
        products = (self._counters * other._counters).reshape(
            self.shape.s1, self.shape.s0
        )
        return float(np.median(products.mean(axis=1)))

    def self_join_size_estimate(self) -> float:
        """Estimate of the second frequency moment F2 of this window."""
        squares = (self._counters**2).reshape(self.shape.s1, self.shape.s0)
        return float(np.median(squares.mean(axis=1)))

    def _check_compatible(self, other: "AgmsSketch") -> None:
        if self.shape != other.shape:
            raise SummaryError("sketch shapes differ: %s vs %s" % (self.shape, other.shape))
        if self.hashes is not other.hashes:
            raise SummaryError("sketches must share one hash bank to be joined")
