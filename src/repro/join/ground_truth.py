"""Exact ground truth for the distributed window join.

Equation 1 measures the error as the fraction of true result tuples missing
from the approximate answer, which requires the exact result set Psi.
Because every node lives inside one simulator process, we can compute Psi
online without a second pass:

Every (r, s) result pair has a *second member* -- whichever of the two
tuples arrived later (globally).  At that tuple's local-arrival event, the
pair exists iff the first member is still inside its origin node's window.
So the oracle mirrors the union of all nodes' local windows (live tuple ids
per key, per stream) and, at each arrival, materializes the pairs the
arriving tuple completes.  Summing over all arrivals enumerates Psi exactly
once per pair.

The oracle also *validates* reported results: forwarded shadow copies can
outlive their origin window, so a node may discover a pair that is not in
Psi (the copy joined after the original expired).  Such reports are
counted as spurious and excluded from |Psi_hat|, keeping the MAX-subset
semantics of Equation 1 exact (Psi_hat is a subset of Psi).

The oracle deliberately tracks only *local* windows: forwarded shadow
copies are an artifact of the evaluation strategy, not of the logical
windows R_1..N and S_1..N of Section 2.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Set, Tuple

from repro.join.hash_join import JoinResult
from repro.streams.tuples import StreamId, StreamTuple


class GroundTruthOracle:
    """Online enumeration of Psi for the MAX-subset error metric."""

    def __init__(self) -> None:
        self._live_ids: Dict[StreamId, Dict[int, List[int]]] = {
            StreamId.R: {},
            StreamId.S: {},
        }
        self._pairs: Set[Tuple[int, int]] = set()
        self.tuples_observed = 0
        self.per_node_contribution: Counter = Counter()

    @property
    def total_result_pairs(self) -> int:
        """|Psi|: size of the exact materialized result set."""
        return len(self._pairs)

    def observe_arrival(self, item: StreamTuple, evicted: Iterable[StreamTuple]) -> int:
        """Record a local arrival and its evictions; returns the pair charge.

        Must be called exactly once per locally-arriving tuple, after the
        node inserted it into its window (``evicted`` is what the insert
        pushed out) and *before* any results involving it are validated.
        """
        # The pairs it completes are charged as for a shed arrival; only
        # entering the live view differs.
        charge = self.observe_shed(item)
        live = self._live_ids[item.stream]
        live.setdefault(item.key, []).append(item.tuple_id)
        self.observe_evictions(item.stream, evicted)
        return charge

    def observe_shed(self, item: StreamTuple) -> int:
        """Record a local arrival that load shedding dropped pre-window.

        The tuple physically existed, so every pair it would have
        completed against the currently-live windows belongs to Psi --
        charging them keeps the error metric honest under overload
        (shedding must show up as lost recall, not as a smaller truth
        set).  The tuple never entered any window, so it is *not* added
        to the live view: pairs where the shed tuple would have been the
        *earlier* member are unknowable online and stay uncounted, making
        the reported epsilon under shedding a lower bound.
        """
        other_ids = self._live_ids[item.stream.other].get(item.key, ())
        for other_id in other_ids:
            self._pairs.add(self._ordered_pair(item.stream, item.tuple_id, other_id))
        charge = len(other_ids)
        self.tuples_observed += 1
        self.per_node_contribution[item.origin_node] += charge
        return charge

    def observe_evictions(self, stream: StreamId, evicted: Iterable[StreamTuple]) -> None:
        """Remove expired tuples from the global view.

        Count windows evict only on insert (covered by
        :meth:`observe_arrival`); time windows also expire tuples between
        arrivals, which the node reports through this hook.

        An id that already left the global view is ignored: checkpoint
        restore rolls a recovering node's window back past evictions the
        oracle has observed, so replayed arrivals re-evict resurrected
        tuples.  Like shadow copies, those resurrections are artifacts of
        the evaluation strategy -- the logical window evicted the tuple at
        its original time, and pairs the resurrected copy completes later
        are counted spurious, preserving Psi_hat as a subset of Psi.
        """
        live = self._live_ids[stream]
        for old in evicted:
            ids = live.get(old.key)
            if ids and old.tuple_id in ids:
                ids.remove(old.tuple_id)
                if not ids:
                    del live[old.key]

    @staticmethod
    def _ordered_pair(
        arriving_stream: StreamId, arriving_id: int, other_id: int
    ) -> Tuple[int, int]:
        """Canonical (r_tuple_id, s_tuple_id) ordering."""
        if arriving_stream is StreamId.R:
            return (arriving_id, other_id)
        return (other_id, arriving_id)

    def is_true_pair(self, r_tuple_id: int, s_tuple_id: int) -> bool:
        """Whether a reported pair belongs to the exact result set."""
        return (r_tuple_id, s_tuple_id) in self._pairs

    def validate(self, result: JoinResult) -> bool:
        """Convenience wrapper over :meth:`is_true_pair` for a result."""
        return self.is_true_pair(result.r_tuple.tuple_id, result.s_tuple.tuple_id)
