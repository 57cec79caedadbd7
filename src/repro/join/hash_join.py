"""Symmetric hash join over a pair of sliding windows.

The classic streaming equijoin: when a tuple of stream R arrives, probe the
S window (and vice versa), emit one result per match, then insert the tuple
into its own window.  "Probe before insert" means a tuple never joins with
itself and a given (r, s) pair is produced exactly once locally -- by
whichever tuple arrived second.

For *forwarded* tuples (copies received from remote nodes) only the probe
happens; the copy is not inserted, because the remote window segment it
belongs to lives at its origin node (Section 2's partitioned-window model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import WindowError
from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import SlidingWindow


@dataclass(slots=True)
class JoinResult:
    """One emitted join result: an (R-tuple, S-tuple) pair."""

    r_tuple: StreamTuple
    s_tuple: StreamTuple
    produced_at_node: int
    produced_at_time: float = 0.0

    @property
    def pair_id(self) -> Tuple[int, int]:
        """Stable identity of the result pair across nodes and duplicates."""
        return (self.r_tuple.tuple_id, self.s_tuple.tuple_id)


class SymmetricHashJoin:
    """Joins the local R and S window segments at one node."""

    def __init__(
        self,
        node_id: int,
        r_window: SlidingWindow,
        s_window: SlidingWindow,
    ) -> None:
        self.node_id = node_id
        self._r_window = r_window
        self._s_window = s_window
        self.local_results = 0
        self.probe_results = 0

    def window(self, stream: StreamId) -> SlidingWindow:
        return self._r_window if stream is StreamId.R else self._s_window

    def insert_local(
        self, item: StreamTuple, now: float = 0.0
    ) -> Tuple[List[JoinResult], List[StreamTuple]]:
        """Process a locally-arriving tuple: probe the other window, insert.

        Returns the emitted results and the tuples the insert evicted (the
        ground-truth oracle and the summaries both need the evictions).
        """
        results = self._probe(item, now)
        self.local_results += len(results)
        evicted = self.window(item.stream).append(item)
        return results, evicted

    def probe_remote(self, item: StreamTuple, now: float = 0.0) -> List[JoinResult]:
        """Probe a forwarded tuple against the opposite window (no insert)."""
        if item.origin_node == self.node_id:
            raise WindowError(
                "tuple %d originated here; use insert_local" % item.tuple_id
            )
        results = self._probe(item, now)
        self.probe_results += len(results)
        return results

    def _probe(self, item: StreamTuple, now: float) -> List[JoinResult]:
        # Identity tests pick the opposite window: ``StreamId.other`` is a
        # property and an enum's ``__hash__`` a Python call.
        node_id = self.node_id
        if item.stream is StreamId.R:
            return [
                JoinResult(item, match, node_id, now)
                for match in self._s_window.matches(item.key)
            ]
        return [
            JoinResult(match, item, node_id, now)
            for match in self._r_window.matches(item.key)
        ]
