"""Sliding windows over stream segments.

Section 2: the window may be defined in tuples, time, or up to a landmark;
the algorithms are agnostic to the definition, and the paper (like this
reproduction's experiments) uses tuple-count windows.  All three flavours
are implemented behind one interface so the join operator and the DFT
summaries do not care which is in force.

Windows maintain, besides the tuple deque, a multiset of keys so that
membership tests and match counting are O(1) per probe, and a deque of
the tuples' keys in the same order, so a probe finds its matches with
``deque.index`` -- a scan in C -- instead of reading every tuple's key.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Iterable, Iterator, List, Optional

from repro.errors import WindowError
from repro.streams.tuples import StreamTuple


class SlidingWindow:
    """Common behaviour: append, evict, key-multiset bookkeeping."""

    rendered = None
    """What :func:`repro.recovery.checkpoint.window_state` remembers of
    its last rendering of this window, valid while the window only
    appends and evicts; a class-level default so a window that is never
    checkpointed pays nothing for it."""

    def __init__(self) -> None:
        self._tuples: Deque[StreamTuple] = deque()
        self._keys: Deque[int] = deque()
        """``t.key`` for each ``t`` in ``_tuples``, position by position."""
        self._key_counts: Counter = Counter()
        self._evicted: List[StreamTuple] = []
        self.total_appended = 0

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._tuples)

    def matches(self, key: int) -> List[StreamTuple]:
        """All window tuples whose key equals ``key`` (join probe), in
        arrival order.

        The key multiset says how many there are, so the key deque is
        searched exactly that many times and never past the last match.
        """
        remaining = self._key_counts.get(key, 0)
        if remaining == 0:
            return []
        tuples, find = self._tuples, self._keys.index
        index = find(key)
        found = [tuples[index]]
        while remaining > 1:
            index = find(key, index + 1)
            found.append(tuples[index])
            remaining -= 1
        return found

    def append(self, item: StreamTuple) -> List[StreamTuple]:
        """Insert ``item`` and return the tuples evicted as a consequence."""
        key = item.key
        self._tuples.append(item)
        self._keys.append(key)
        counts = self._key_counts
        counts[key] = counts.get(key, 0) + 1
        self.total_appended += 1
        self._evicted = []
        self._enforce(item)
        evicted, self._evicted = self._evicted, []
        return evicted

    def restore(self, tuples: Iterable[StreamTuple], total_appended: int) -> None:
        """Replace the window contents from a checkpoint.

        The key multiset is rebuilt from the restored tuples, so the
        window is internally consistent whatever state it held before.
        """
        items = list(tuples)
        self._tuples = deque(items)
        self._keys = deque(t.key for t in items)
        self._key_counts = Counter(self._keys)
        self._evicted = []
        self.total_appended = int(total_appended)
        # The counter may roll back here and climb to a remembered value
        # again over other tuples, so the remembered text goes.
        self.rendered = None

    def _evict_oldest(self) -> StreamTuple:
        if not self._tuples:
            raise WindowError("evicting from an empty window")
        oldest = self._tuples.popleft()
        key = self._keys.popleft()
        counts = self._key_counts
        left = counts[key] - 1
        if left:
            counts[key] = left
        else:
            del counts[key]
        self._evicted.append(oldest)
        return oldest

    def _enforce(self, newest: StreamTuple) -> None:
        """Evict tuples so the window invariant holds after ``newest``
        (a :class:`CountWindow` evicts inside its own ``append``)."""
        raise NotImplementedError


class CountWindow(SlidingWindow):
    """Window holding the most recent ``capacity`` tuples.  Its append
    evicts inline (``tests/reference_window.py`` holds the generic path)."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise WindowError("window capacity must be positive, got %d" % capacity)
        super().__init__()
        self.capacity = capacity

    def append(self, item: StreamTuple) -> List[StreamTuple]:
        key = item.key
        tuples, keys, counts = self._tuples, self._keys, self._key_counts
        tuples.append(item)
        keys.append(key)
        counts[key] = counts.get(key, 0) + 1
        self.total_appended += 1
        evicted = []
        while len(tuples) > self.capacity:
            evicted.append(tuples.popleft())
            key = keys.popleft()
            left = counts[key] - 1
            if left:
                counts[key] = left
            else:
                del counts[key]
        return evicted


class TimeWindow(SlidingWindow):
    """Window holding tuples whose timestamp lies within ``span`` of the newest.

    Tuples must carry timestamps and arrive in non-decreasing time order.
    """

    def __init__(self, span: float) -> None:
        if span <= 0:
            raise WindowError("window span must be positive, got %g" % span)
        super().__init__()
        self.span = span

    def _enforce(self, newest: StreamTuple) -> None:
        if newest.timestamp is None:
            raise WindowError("TimeWindow requires timestamped tuples")
        horizon = newest.timestamp - self.span
        while self._tuples and self._first_timestamp() < horizon:
            self._evict_oldest()

    def _first_timestamp(self) -> float:
        first = self._tuples[0]
        if first.timestamp is None:
            raise WindowError("TimeWindow requires timestamped tuples")
        return first.timestamp

    def advance_to(self, now: float) -> List[StreamTuple]:
        """Expire tuples against the clock without inserting (idle eviction)."""
        self._evicted = []
        horizon = now - self.span
        while self._tuples and self._first_timestamp() < horizon:
            self._evict_oldest()
        evicted, self._evicted = self._evicted, []
        return evicted


class LandmarkWindow(SlidingWindow):
    """Window that accumulates until a landmark key is observed, then resets."""

    def __init__(self, landmark_key: int, max_size: Optional[int] = None) -> None:
        super().__init__()
        self.landmark_key = landmark_key
        self.max_size = max_size
        self.resets = 0

    def _enforce(self, newest: StreamTuple) -> None:
        if newest.key == self.landmark_key:
            while len(self._tuples) > 1:  # keep the landmark tuple itself
                self._evict_oldest()
            self.resets += 1
        elif self.max_size is not None:
            while len(self._tuples) > self.max_size:
                self._evict_oldest()
