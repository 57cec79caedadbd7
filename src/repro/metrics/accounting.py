"""Result collection with pair-level deduplication.

The same (r, s) result pair can be discovered at more than one node (the
forwarded copy of r joins at s's node while s's forwarded copy joins at
r's node).  The prototype would deduplicate at the query consumer; here a
set of pair identities does the same so |Psi_hat| counts *distinct*
reported pairs, as Equation 1 requires.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.join.hash_join import JoinResult
from repro.metrics.latency import LatencyTracker
from repro.metrics.throughput import ThroughputSeries


class ResultCollector:
    """System-wide sink for reported join results."""

    def __init__(self) -> None:
        self._pairs: Set[Tuple[int, int]] = set()
        self.duplicates = 0
        self.spurious = 0
        self.raw_reports = 0
        self.throughput = ThroughputSeries()
        self.latency = LatencyTracker()

    def record(self, result: JoinResult, time: float, is_true: bool = True) -> bool:
        """Report one result; returns whether it was new (not a duplicate).

        ``is_true`` comes from the ground-truth oracle: pairs discovered
        through stale shadow copies are outside Psi and must not count
        toward |Psi_hat| (they are tallied as spurious instead).
        """
        self.raw_reports += 1
        if not is_true:
            self.spurious += 1
            return False
        pair = result.pair_id
        if pair in self._pairs:
            self.duplicates += 1
            return False
        self._pairs.add(pair)
        self.throughput.record(time)
        self._record_latency(result, time)
        return True

    def _record_latency(self, result: JoinResult, time: float) -> None:
        """Latency = report time minus the later member's arrival time.

        The pair logically exists the moment its second member arrived;
        everything after that is discovery delay (queueing, forwarding,
        link latency).  Unstamped members (hand-built tests) count as
        zero-latency."""
        stamps = [
            stamp
            for stamp in (result.r_tuple.timestamp, result.s_tuple.timestamp)
            if stamp is not None
        ]
        if not stamps:
            return
        self.latency.record(time - max(stamps))

    @property
    def reported_pairs(self) -> int:
        """|Psi_hat|: distinct result pairs reported."""
        return len(self._pairs)


def replay_accounting(ops, oracle, collector) -> None:
    """Apply deferred accounting operations in canonical order.

    ``ops`` are the nodes' logged operations, tuples of ``(time, node,
    seq, kind, payload)`` (see
    :meth:`repro.core.node.JoinProcessingNode._log_op`).  They are sorted
    by ``(time, node, seq)`` -- a total order, since ``seq`` is a
    per-node monotone counter -- and applied to the run's one oracle and
    collector.  Replaying instead of mutating mid-run makes the accuracy
    numbers a pure function of the op multiset: the same per-node
    histories give byte-identical accounting, however the nodes' events
    interleaved globally.

    Op kinds:

    * ``arrival`` -- ``(item, evicted)``: a local tuple entered its
      window, evicting ``evicted``; feeds the oracle's truth set.
    * ``evict`` -- ``(stream, expired)``: a time-window advance expired
      tuples between arrivals.
    * ``report`` -- ``(results...)``: results a node discovered; the
      collector classifies each against the oracle state *at replay
      position*, which is exactly the oracle state at that simulated
      moment.
    * ``shed`` -- ``(item,)``: overload shedding dropped a local arrival
      before it reached any window; the oracle still charges the pairs
      it would have completed (honest accounting under degradation).
    """
    for op in sorted(ops, key=lambda op: (op[0], op[1], op[2])):
        time, _node, _seq, kind, payload = op
        if kind == "arrival":
            item, evicted = payload
            oracle.observe_arrival(item, list(evicted))
        elif kind == "evict":
            stream, expired = payload
            oracle.observe_evictions(stream, list(expired))
        elif kind == "shed":
            (item,) = payload
            oracle.observe_shed(item)
        elif kind == "report":
            for result in payload:
                collector.record(result, time, is_true=oracle.validate(result))
        else:  # pragma: no cover - new op kinds must be handled explicitly
            raise ValueError("unknown accounting op kind %r" % (kind,))
