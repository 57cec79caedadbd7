"""Counting Bloom filter.

The sliding window deletes tuples, so the BLOOM baseline uses *counting*
filters (Section 6: "a counting Bloom filter is constructed at each
site").  Each position holds a small counter; insertion increments the k
probed counters, deletion decrements them, and membership requires all k
to be positive.  Counters saturate at ``max_count`` instead of
overflowing (the classical 4-bit counter treatment), at the cost of
possible false negatives after saturation -- tracked so tests can assert
it never happens at the experiment scales.

All sites probe with the same hash functions (:meth:`spawn_compatible`),
so the filters of one family also share one bounded key -> probe-positions
table: a key costs its k hash evaluations once per family, not once per
filter per question.  A filter constructed directly has a table of its
own, whatever hash family it was handed.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import itemgetter
from typing import Optional, Tuple

import numpy as np

from repro._rng import ensure_rng
from repro.errors import SummaryError
from repro.sketches.hashing import DEFAULT_SIGN_CACHE_SIZE, FourWiseHashFamily


class CountingBloomFilter:
    """Bloom filter with per-position counters supporting deletion."""

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
        if self._hashes.rows < 2:
            raise SummaryError("double hashing needs a 2-row hash family")
        # key -> (probe positions, a getter of those positions);
        # spawn_compatible hands the table to the twin.
        self._position_table: "OrderedDict[int, Tuple[np.ndarray, itemgetter]]" = (
            OrderedDict()
        )
        self._counters = np.zeros(num_counters, dtype=np.int32)
        self._counter_bytes: Optional[bytes] = None
        """The counters as bytes while they are a loaded snapshot that
        fits a byte each; ``None`` once the filter changes on its own."""
        self.items = 0
        self.saturations = 0

    def spawn_compatible(self) -> "CountingBloomFilter":
        """Empty filter sharing this filter's hash functions (and the
        table of probe positions already worked out from them)."""
        twin = CountingBloomFilter(
            self.num_counters, self.num_hashes, self.max_count, hashes=self._hashes
        )
        twin._position_table = self._position_table
        return twin

    def _positions(self, key: int) -> np.ndarray:
        """The key's probe positions (read-only: the array is shared)."""
        entry = self._position_table.get(key)
        if entry is None:
            entry = self._hash_in(key)
        return entry[0]

    def _hash_in(self, key: int) -> Tuple[np.ndarray, itemgetter]:
        """Work out a key's positions and enter them in the shared table."""
        table = self._position_table
        raw = self._hashes.raw(key)
        h1, h2 = int(raw[0]), int(raw[1]) | 1
        positions = (
            h1 + np.arange(self.num_hashes, dtype=np.int64) * h2
        ) % self.num_counters
        positions.flags.writeable = False
        spots = positions.tolist()
        if len(spots) == 1:
            spots.append(spots[0])  # one index would fetch a bare value
        entry = (positions, itemgetter(*spots))
        table[key] = entry
        # First in, first out: a hit stays one lookup.
        if len(table) > DEFAULT_SIGN_CACHE_SIZE:
            table.popitem(last=False)
        return entry

    def add(self, key: int) -> None:
        self._counter_bytes = None
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
        self._counter_bytes = None
        positions = self._positions(key)
        counters = self._counters[positions]
        if ((counters == 0) & (counters < self.max_count)).any():
            raise SummaryError("removing key %d that was never added" % key)
        decrementable = counters < self.max_count
        self._counters[positions[decrementable]] -= 1
        self.items -= 1

    def __contains__(self, key: int) -> bool:
        return bool((self._counters[self._positions(key)] > 0).all())

    def count_estimate(self, key: int) -> int:
        """Upper bound on the key's window multiplicity (min probed counter).

        A loaded snapshot only changes when the next one arrives, so on a
        remote filter this is a ``min`` over bytes, not a numpy gather.
        """
        counters = self._counter_bytes
        if counters is None:
            return int(self._counters[self._positions(key)].min())
        entry = self._position_table.get(key)
        if entry is None:
            entry = self._hash_in(key)
        return min(entry[1](counters))

    def fill_ratio(self) -> float:
        """Fraction of non-zero counters."""
        return float((self._counters > 0).mean())

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
        narrow = arr.astype(np.uint8)
        self._counter_bytes = (
            narrow.tobytes() if np.array_equal(narrow, arr) else None
        )

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
        self._counter_bytes = None
        self.items = int(state["items"])
        self.saturations = int(state["saturations"])
