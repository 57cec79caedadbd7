"""The pre-PR-23 counting Bloom filter, kept as the tests' oracle.

Until PR 23 every ``add`` / ``remove`` / ``in`` / ``count_estimate``
evaluated the filter's hash functions afresh (``_positions``: two
degree-3 polynomials and a ``num_hashes``-long ``arange`` per call).
Since then the filters of one ``spawn_compatible`` family share a bounded
key -> probe-positions table.  The class below is the old filter moved
here verbatim, so the table-backed filter under ``src/`` can be held to
it answer for answer and counter for counter with ``==``.
"""

import math
from typing import Iterable, Optional

import numpy as np

from repro._rng import ensure_rng
from repro.errors import SummaryError
from repro.sketches.hashing import FourWiseHashFamily


class ReferenceCountingBloomFilter:
    """``repro.bloom.counting.CountingBloomFilter`` as of PR 22."""

    def __init__(
        self,
        num_counters: int,
        num_hashes: int,
        max_count: int = 15,
        hashes: Optional[FourWiseHashFamily] = None,
        rng=None,
    ) -> None:
        if num_counters < 1:
            raise SummaryError("num_counters must be >= 1")
        if num_hashes < 1:
            raise SummaryError("num_hashes must be >= 1")
        if max_count < 1:
            raise SummaryError("max_count must be >= 1")
        self.num_counters = num_counters
        self.num_hashes = num_hashes
        self.max_count = max_count
        self._hashes = hashes if hashes is not None else FourWiseHashFamily(
            2, rng=ensure_rng(rng)
        )
        self._counters = np.zeros(num_counters, dtype=np.int32)
        self.items = 0
        self.saturations = 0

    def spawn_compatible(self) -> "ReferenceCountingBloomFilter":
        """Empty filter sharing this filter's hash functions."""
        return ReferenceCountingBloomFilter(
            self.num_counters, self.num_hashes, self.max_count, hashes=self._hashes
        )

    def _positions(self, key: int) -> np.ndarray:
        raw = self._hashes.raw(key)
        h1, h2 = int(raw[0]), int(raw[1]) | 1
        return (h1 + np.arange(self.num_hashes, dtype=np.int64) * h2) % self.num_counters

    def add(self, key: int) -> None:
        positions = self._positions(key)
        saturated = self._counters[positions] >= self.max_count
        self.saturations += int(saturated.sum())
        self._counters[positions] = np.minimum(
            self._counters[positions] + 1, self.max_count
        )
        self.items += 1

    def remove(self, key: int) -> None:
        """Delete one previously-added key (sliding-window eviction).

        Saturated counters are *sticky*: once a counter hit ``max_count``
        its true value is unknown, so it is never decremented (the classic
        4-bit-counter treatment).  This preserves the no-false-negative
        guarantee at the cost of permanent false positives in hot cells.
        """
        positions = self._positions(key)
        counters = self._counters[positions]
        if ((counters == 0) & (counters < self.max_count)).any():
            raise SummaryError("removing key %d that was never added" % key)
        decrementable = counters < self.max_count
        self._counters[positions[decrementable]] -= 1
        self.items -= 1

    def update(self, keys: Iterable[int]) -> None:
        for key in keys:
            self.add(key)

    def __contains__(self, key: int) -> bool:
        return bool((self._counters[self._positions(key)] > 0).all())

    def count_estimate(self, key: int) -> int:
        """Upper bound on the key's window multiplicity (min probed counter)."""
        return int(self._counters[self._positions(key)].min())

    def fill_ratio(self) -> float:
        """Fraction of non-zero counters."""
        return float((self._counters > 0).mean())

    def false_positive_rate(self) -> float:
        """Estimated FP probability from the current fill ratio."""
        return self.fill_ratio() ** self.num_hashes

    def snapshot(self) -> np.ndarray:
        """Copy of the counter array (what gets shipped to remote sites)."""
        return self._counters.copy()

    def load_snapshot(self, counters: np.ndarray) -> None:
        """Replace state with a received snapshot (remote-filter table)."""
        arr = np.asarray(counters, dtype=np.int32)
        if arr.shape != self._counters.shape:
            raise SummaryError("snapshot shape mismatch")
        self._counters = arr.copy()
        self.items = -1  # unknown: the snapshot does not carry it

    def checkpoint_state(self) -> dict:
        """Exact snapshot for repro.recovery (unlike :meth:`snapshot`,
        carries ``items``/``saturations`` so restore is an identity)."""
        from repro.recovery.checkpoint import encode_array

        return {
            "counters": encode_array(self._counters),
            "items": self.items,
            "saturations": self.saturations,
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`checkpoint_state` on a same-shape filter."""
        from repro.recovery.checkpoint import decode_array

        counters = decode_array(state["counters"])
        if counters.shape != self._counters.shape:
            raise SummaryError("checkpoint shape mismatch")
        self._counters = counters
        self.items = int(state["items"])
        self.saturations = int(state["saturations"])

    def serialized_entries(self, counters_per_entry: int = 40) -> int:
        """Summary entries on the wire (4-bit counters, 20-byte entries)."""
        return max(1, math.ceil(self.num_counters / counters_per_entry))
