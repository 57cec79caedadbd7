"""Peer health: failure detection, staleness tracking, recovery latency.

The filtering policies are only as good as the summaries they filter on.
:class:`PeerHealthMonitor` gives each node two independent, per-peer
signals the runtime uses to degrade gracefully (see
:meth:`PeerHealthMonitor.degrade`):

* **liveness** -- a heartbeat-fed, timeout-based failure detector in the
  style of eventually-perfect detectors: silence beyond
  ``SUSPECT_TIMEOUT_S`` marks a peer *suspected*; the first message of
  any kind clears the suspicion and records the recovery latency.
  Detection is evaluated lazily at forwarding decisions rather than with
  dedicated timer events, so an idle mesh schedules nothing extra.
* **summary staleness** -- the age of the freshest summary update applied
  from the peer.  Past ``staleness_budget_s`` the peer's summary is no
  longer trusted for filtering, even if the peer is demonstrably alive
  (the gray-failure case: the link drops summaries but heartbeats slip
  through).

The monitor also keeps a small fixed-bucket histogram of the staleness
observed at each forwarding decision, which ends up in the run result --
the distribution, not just the worst case, is what tells you whether the
control loop kept up.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.reliable import ReliabilitySettings

HEARTBEAT_INTERVAL_S = 0.5
"""Gap between HEARTBEAT probes to every peer."""

SUSPECT_TIMEOUT_S = 2.0
"""Silence (no message of any kind) after which a peer is suspected dead
and the policies degrade for it."""

STALENESS_BUCKETS_S: Tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0)
"""Upper edges of the staleness histogram buckets (the last bucket is
open-ended)."""


class PeerHealthMonitor:
    """Per-peer liveness and summary-freshness state for one node."""

    def __init__(
        self,
        node_id: int,
        peer_ids: Tuple[int, ...],
        settings: ReliabilitySettings,
        on_recovery: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.node_id = node_id
        self.peer_ids = tuple(peer_ids)
        self.settings = settings
        self._on_recovery = on_recovery
        self._last_heard: Dict[int, float] = {peer: 0.0 for peer in self.peer_ids}
        self._last_summary: Dict[int, float] = {peer: 0.0 for peer in self.peer_ids}
        self._suspected_at: Dict[int, float] = {}
        self.failures_detected = 0
        self.recoveries = 0
        self.recovery_latencies: List[float] = []
        self.staleness_histogram: List[int] = [0] * (len(STALENESS_BUCKETS_S) + 1)
        self.forced_broadcast_sends = 0
        self.suppressed_sends = 0
        self.telemetry = None
        """Optional :class:`repro.telemetry.TelemetryHub`; suspicion and
        recovery transitions are emitted as health events when set."""

    # ------------------------------------------------------------------
    # signal ingestion
    # ------------------------------------------------------------------

    def heard(self, peer: int, now: float) -> None:
        """Any message from ``peer`` arrived (tuple, summary, ack, heartbeat)."""
        if peer not in self._last_heard:
            return
        self._last_heard[peer] = now
        suspected_at = self._suspected_at.pop(peer, None)
        if suspected_at is not None:
            self.recoveries += 1
            self.recovery_latencies.append(now - suspected_at)
            if self.telemetry is not None:
                self.telemetry.emit(
                    "health.recovered",
                    category="health",
                    node=self.node_id,
                    time=now,
                    peer=peer,
                    latency_s=now - suspected_at,
                )
            # Give the peer a staleness grace period: a resync is on its
            # way (triggered below), and judging the peer stale the very
            # tick it came back would flap the degradation state.
            self._last_summary[peer] = now
            if self._on_recovery is not None:
                self._on_recovery(peer)

    def summary_received(self, peer: int, now: float) -> None:
        """A summary update from ``peer`` was applied."""
        if peer in self._last_summary:
            self._last_summary[peer] = now

    def note_restart(self, now: float) -> None:
        """The *local* node restarted after a crash (see repro.recovery).

        Everything this monitor knew predates the outage: peers were
        silent only because we were down.  Grant every peer a fresh grace
        period rather than suspecting the whole mesh on the first
        forwarding decision after restore.
        """
        for peer in self.peer_ids:
            self._last_heard[peer] = now
            self._last_summary[peer] = now
        self._suspected_at.clear()

    # ------------------------------------------------------------------
    # queries (evaluated lazily; `heard` clears suspicion)
    # ------------------------------------------------------------------

    def is_suspected(self, peer: int, now: float) -> bool:
        """Whether ``peer`` has been silent beyond the suspect timeout."""
        if peer in self._suspected_at:
            return True
        if now - self._last_heard[peer] > SUSPECT_TIMEOUT_S:
            self._suspected_at[peer] = now
            self.failures_detected += 1
            if self.telemetry is not None:
                self.telemetry.emit(
                    "health.suspected",
                    category="health",
                    node=self.node_id,
                    time=now,
                    peer=peer,
                    silent_s=now - self._last_heard[peer],
                )
            return True
        return False

    def degrade(
        self, destinations: List[int], peer_ids: Tuple[int, ...], now: float
    ) -> List[int]:
        """Adjust a forwarding decision for peers that cannot be trusted.

        Peers whose summaries aged past the staleness budget are handled
        per ``degradation_mode``: "broadcast" forces a copy to them
        (BASE-style -- their summary can no longer rule matches out, so
        recall is preserved at message cost), "suppress" drops the flow
        toward them.  Suspected-dead peers are always suppressed: their
        copies would be dropped at delivery anyway, and the uplink pause
        they cost is real.

        Each peer's summary age also lands in the staleness histogram
        (the first bucket whose upper edge it does not exceed).  One
        pass over the peers; ``tests/reference_health.py`` holds the
        per-question body it replaced.
        """
        chosen = set(destinations)
        histogram = self.staleness_histogram
        last_heard, last_summary = self._last_heard, self._last_summary
        suspected = self._suspected_at
        budget = self.settings.staleness_budget_s
        broadcast = self.settings.degradation_mode == "broadcast"
        for peer in peer_ids:
            age = now - last_summary[peer]
            histogram[bisect_left(STALENESS_BUCKETS_S, age)] += 1
            silent = peer in suspected
            if not silent and now - last_heard[peer] > SUSPECT_TIMEOUT_S:
                silent = self.is_suspected(peer, now)  # records the suspicion
            if silent:
                if peer in chosen:
                    chosen.discard(peer)
                    self.suppressed_sends += 1
                continue
            if budget <= 0 or age <= budget:
                continue
            if broadcast:
                if peer not in chosen:
                    chosen.add(peer)
                    self.forced_broadcast_sends += 1
            elif peer in chosen:
                chosen.discard(peer)
                self.suppressed_sends += 1
        return sorted(chosen)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        counters: Dict[str, float] = {
            "failures_detected": float(self.failures_detected),
            "recoveries": float(self.recoveries),
        }
        if self.recovery_latencies:
            counters["recovery_latency_mean_s"] = sum(self.recovery_latencies) / len(
                self.recovery_latencies
            )
            counters["recovery_latency_max_s"] = max(self.recovery_latencies)
        previous_edge = 0.0
        for index, edge in enumerate(STALENESS_BUCKETS_S):
            counters["staleness_le_%gs" % edge] = float(self.staleness_histogram[index])
            previous_edge = edge
        counters["staleness_gt_%gs" % previous_edge] = float(self.staleness_histogram[-1])
        return counters
