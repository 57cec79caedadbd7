"""The distributed stream-processing node (Figure 7's runtime).

Each node owns, for the run's one join query R |><| S:

* its local segments R_i and S_i of the stream windows;
* *shadow windows* holding forwarded copies received from peers -- the
  materialization of the cross-partition joins R_i |><| S_j at this node;
* a forwarding policy (summaries + destination choice).

The testbed *pauses the sender* one second per 90 kilobits, so a
service's time includes the pauses of what it sends: a node saturated by
(N-1)-way broadcast processes fewer tuples per second, the effect Figure 11
measures.  Queueing and service are the node's
:class:`~repro.core.service.ServiceProcess`.

Restartable crashes are this repo's extension, not the paper's: with
recovery enabled the node composes a
:class:`~repro.recovery.coordinator.RecoveryCoordinator` that owns the
replay log, checkpoints, rejoin timers and state transfer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import config as testbed
from repro.config import SystemConfig, WindowKind
from repro.core.health import PeerHealthMonitor
from repro.core.policies.base import ForwardingPolicy
from repro.core.service import ServiceProcess, WorkItem, work_kind
from repro.join.hash_join import JoinResult, SymmetricHashJoin
from repro.net.message import Message, MessageKind
from repro.net.reliable import ReliableTransport
from repro.net.simulator import EventKeySource, EventScheduler
from repro.net.topology import Network
from repro.overload import DegradationLadder, DegradationMode, OverloadDetector
from repro.recovery.coordinator import RecoveryCoordinator
from repro.recovery.settings import RecoverySettings
from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import (
    CountWindow,
    LandmarkWindow,
    SlidingWindow,
    TimeWindow,
)

THROTTLE_REFRESH_STRETCH = 4
"""Multiplier applied to the summary refresh cadence while degraded
(THROTTLED or SHEDDING): summaries recompute and broadcast this many
times less often, shrinking the control-plane share of a saturated
uplink."""


class JoinProcessingNode:
    """One processing site of the distributed join."""

    def __init__(
        self,
        node_id: int,
        config: SystemConfig,
        scheduler: EventScheduler,
        network: Network,
        policy: ForwardingPolicy,
        transport: Optional[ReliableTransport] = None,
        fault_injector=None,
        profiler=None,
        telemetry=None,
        recovery: Optional[RecoverySettings] = None,
        checkpoint_store=None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.scheduler = scheduler
        self.network = network
        self._event_keys = EventKeySource(node_id)
        """Entity-local event keys for everything this node schedules
        (service completions, recovery timers, ARQ retransmits), so
        their order among same-instant events is a function of this
        node's own history, not of global scheduling order."""
        self.accounting_ops: List[tuple] = []
        """Deferred ground-truth/collector operations, logged in service
        order and replayed in canonical ``(time, node, seq)`` order at
        collect time (see repro.metrics.accounting.replay_accounting)."""
        self._acct_seq = 0
        self._last_contact: Dict[int, float] = {}
        self._mean_interarrival = 0.0
        self._last_arrival_time: Optional[float] = None
        self.tuples_processed = 0
        self.remote_tuples_processed = 0
        self.standalone_summaries_sent = 0
        self.busy_seconds = 0.0
        self.transport = transport
        """Reliable control-plane endpoint; ``None`` runs the paper's
        pure best-effort wire protocol (the default)."""
        if transport is not None:
            transport.key_source = self._event_keys
        self.profiler = profiler
        """Optional recorder (see ``DistributedJoinSystem.profiler``);
        when set, every service runs in a ``node.<kind>`` section."""
        self.fault_injector = fault_injector
        self.health: Optional[PeerHealthMonitor] = None
        self.local_arrivals_dropped = 0
        self.resyncs = 0
        self._peer_ids = tuple(p for p in range(config.num_nodes) if p != node_id)
        if transport is not None:
            self.health = PeerHealthMonitor(
                node_id, self._peer_ids, transport.settings, self.resync_peer
            )
        self.recovery: Optional[RecoveryCoordinator] = None
        """Checkpoint/restart recovery (:mod:`repro.recovery`), built only
        when enabled; each entry point checks ``None`` first, so a run
        without recovery pays one attribute check there."""
        if recovery is not None and recovery.enabled:
            self.recovery = RecoveryCoordinator(self, checkpoint_store)
        self.time_windows = config.window_kind is WindowKind.TIME
        """Whether windows expire by time, so a probe first advances them."""
        self.join = SymmetricHashJoin(
            node_id, r_window=self._make_window(), s_window=self._make_window()
        )
        self.policy = policy
        self.shadow_windows: Dict[StreamId, Dict[int, SlidingWindow]] = {
            StreamId.R: {}, StreamId.S: {}
        }
        # The two dicts themselves, which a restore refills in place: the
        # per-delivery paths pick one by identity instead of hashing a
        # StreamId.
        self._r_shadows = self.shadow_windows[StreamId.R]
        self._s_shadows = self.shadow_windows[StreamId.S]
        self.seen_pairs: set = set()
        """Result pairs this node already shipped (node-local RESULT dedup)."""
        if self.recovery is not None:
            self.recovery.install_history(policy)
        # --- overload protection (repro.overload) -----------------------
        overload = config.overload if config.overload.enabled else None
        self.degradation_ladder: Optional[DegradationLadder] = None
        detector: Optional[OverloadDetector] = None
        if overload is not None:
            self.degradation_ladder = DegradationLadder(node_id)
            detector = OverloadDetector(overload, self.degradation_ladder)
        self.shed_tuples = 0
        self.shed_messages = 0
        self.suppressed_flushes = 0
        self.telemetry = telemetry
        """Optional :class:`~repro.telemetry.TelemetryHub`; every service
        becomes a span and fan-out decisions feed a histogram.  Handles
        are cached here so the hot path pays one ``None`` check when
        telemetry is off and one method call when it is on."""
        self._fanout_histogram = None
        if telemetry is not None:
            if self.health is not None:
                self.health.telemetry = telemetry
            if transport is not None:
                transport.telemetry = telemetry
                transport.telemetry_node = node_id
            edges = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
            self._fanout_histogram = telemetry.registry.histogram(
                "repro_node_fanout", edges=edges, node=node_id
            )
        # An input's only effect here is the queue append when there is no
        # telemetry, fault, ARQ demux, liveness, restore parking or bound.
        subsystems = (transport, self.recovery, detector, telemetry, fault_injector)
        self.service = ServiceProcess(
            scheduler,
            self._event_keys,
            self.serve,
            uses_inbox=all(part is None for part in subsystems),
            detector=detector,
            shed=self._shed,
            mode_change=self._on_mode_change,
        )
        """This node's queue and service loop (:mod:`repro.core.service`)."""
        self.take = self.service.take
        """The ingress the Network hands each delivery to."""

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------

    def schedule_local_arrival(self, time: float, item: StreamTuple) -> None:
        """Have ``item`` arrive here at ``time``, keyed by its
        ``arrival_index`` (see :mod:`repro.core.service`)."""
        self.service.take([time, 0, 0, item.arrival_index, item, self.on_local_arrival])

    def on_local_arrival(self, item: StreamTuple) -> None:
        """A tuple of this node's own stream segment arrived."""
        if self.recovery is not None and self.recovery.park_arrival(item):
            # Down but restartable: logged for replay after restore.
            return
        if self.fault_injector is not None and self.fault_injector.node_down(
            self.node_id
        ):
            # A crashed site loses its local arrivals outright; the oracle
            # never observes them either, so truth and report stay
            # comparable -- the crash costs coverage, not correctness.
            self.local_arrivals_dropped += 1
            return
        self.service.enqueue(item)

    def on_message(self, message: Message) -> None:
        """Network delivery callback.

        With the reliable transport enabled this is also the demux point:
        ACKs cancel retransmit timers, heartbeats only feed the failure
        detector, and sequenced control messages pass through the ARQ
        receiver (which may release zero or several messages in order).
        """
        if self.recovery is not None and self.recovery.park_delivery(message):
            # Mid-restore: comes back through this demux once restored.
            return
        if self.health is not None:
            self.health.heard(message.source, self.scheduler.now)
        if self.transport is not None:
            if message.kind is MessageKind.ACK:
                self.transport.on_ack(message)
                return
            if message.kind is MessageKind.HEARTBEAT:
                return
            if message.seq is not None:
                for released in self.transport.on_receive(message):
                    self.service.enqueue(released)
                return
        self.service.enqueue(message)

    # ------------------------------------------------------------------
    # service (the callbacks of self.service)
    # ------------------------------------------------------------------

    def serve(self, work: WorkItem) -> float:
        """Serve one unit of work now; return its service time."""
        process = (
            self._process_local if type(work) is StreamTuple else self._process_message
        )
        if self.profiler is None:
            seconds = process(work)
        else:
            with self.profiler.section("node.%s" % work_kind(work)):
                seconds = process(work)
        if self.fault_injector is not None:
            # An active OVERLOAD fault stretches this node's service times
            # (CPU contention / a slow collocated tenant); factor 1.0 -- no
            # fault covering this node -- is a bit-exact no-op.
            factor = self.fault_injector.service_factor(self.node_id)
            if factor != 1.0:
                seconds *= factor
        self.busy_seconds += seconds
        if self.telemetry is not None:
            # The service time is known synchronously, so one complete
            # span per service -- no begin/end pairing to reconcile.
            self.telemetry.emit(
                "node.service",
                category="node",
                node=self.node_id,
                time=self.scheduler.now,
                dur_s=seconds,
                kind=work_kind(work),
            )
        return seconds

    def _shed(self, work: WorkItem) -> None:
        """Account for one unit of work the service queue shed.  A shed
        local tuple is logged as a ``shed`` op, so the oracle still charges
        the pairs it would have completed and recall drops instead of the
        denominator; shed remote work was counted at its origin."""
        kind = work_kind(work)
        now = self.scheduler.now
        if kind == "local":
            self.shed_tuples += 1
            self._log_op(now, "shed", (work.with_timestamp(now),))
        else:
            self.shed_messages += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "overload.shed", category="overload", node=self.node_id,
                time=now, kind=kind, count=1,
            )

    def _on_mode_change(
        self, trigger: str, mode: DegradationMode, queue_depth: int, now: float
    ) -> None:
        """One degradation-ladder transition landed: apply its mechanics."""
        normal = mode is DegradationMode.NORMAL
        self.policy.set_refresh_stretch(1 if normal else THROTTLE_REFRESH_STRETCH)
        if self.telemetry is not None:
            self.telemetry.emit(
                "overload.mode", category="overload", node=self.node_id,
                time=now, trigger=trigger, mode=mode.value, queue_depth=queue_depth,
            )

    @property
    def max_queue_depth(self) -> int:
        return self.service.max_queue_depth

    # ------------------------------------------------------------------
    # window construction
    # ------------------------------------------------------------------

    def _make_window(self) -> SlidingWindow:
        """A local or shadow window of the configured kind and size.  A
        time-window copy expires by its timestamp, as its original does; a
        count shadow holds the last W copies *forwarded* from one origin."""
        if self.config.window_kind is WindowKind.TIME:
            return TimeWindow(self.config.window_seconds)
        if self.config.window_kind is WindowKind.LANDMARK:
            # Shadow windows reset on landmark copies too: the origin's
            # window emptied at that moment, so its copies are stale.
            return LandmarkWindow(
                self.config.landmark_key, max_size=self.config.window_size
            )
        return CountWindow(self.config.window_size)

    def _refresh_time_windows(self, now: float) -> None:
        """Expire time-window tuples before a probe (callers check
        :attr:`time_windows`): a probe must not match a tuple whose span
        lapsed, so local and shadow windows advance to ``now``; local
        expirations reach the oracle and the summaries."""
        for stream in (StreamId.R, StreamId.S):
            window = self.join.window(stream)
            expired = window.advance_to(now)
            if expired:
                self._log_op(now, "evict", (stream, tuple(expired)))
                self.policy.on_evictions(stream, expired)
            for shadow in self.shadow_windows[stream].values():
                shadow.advance_to(now)

    # ------------------------------------------------------------------
    # local tuple processing (Figure 7)
    # ------------------------------------------------------------------

    def _process_local(self, raw_item: StreamTuple) -> float:
        now = self.scheduler.now
        item = raw_item.with_timestamp(now)
        self._note_arrival(now)
        if self.time_windows:
            self._refresh_time_windows(now)

        # Probe + insert against the local windows, probe the shadow copies.
        results, evicted = self.join.insert_local(item, now)
        results.extend(self._probe_shadow(item, now))
        self._log_op(now, "arrival", (item, tuple(evicted)))
        result_pause = self._report_results(results, now)

        # Summaries update before the forwarding decision (Figure 7 order).
        self.policy.on_local_insert(item, evicted)
        self.policy.observe_congestion(self.service.queue_depth)
        destinations = self.policy.choose_destinations(item)
        if self.health is not None:
            destinations = self.health.degrade(destinations, self.policy.peer_ids, now)
        if self._fanout_histogram is not None:
            self._fanout_histogram.observe(float(len(destinations)))

        transmission_seconds = self._forward(item, destinations, now, result_pause)
        transmission_seconds += self._flush_stale_summaries(now)

        self.tuples_processed += 1
        return testbed.CPU_SECONDS_PER_TUPLE + transmission_seconds

    def resync_peer(self, peer: int) -> None:
        """Queue ``peer`` full-state summaries: it spoke again after
        suspicion, or restarted and asked for state."""
        self.resyncs += 1
        self.policy.resync_peer(peer)

    def send_heartbeats(self) -> None:
        """Emit one best-effort HEARTBEAT probe to every peer.

        Scheduled by the system at the configured interval; header-only
        messages that bypass the service queue (out-of-band liveness
        probes, not workload).  One message per tick, sent to each peer.
        A crashed node stays silent.
        """
        if self.health is None:
            return
        if self.fault_injector is not None and self.fault_injector.node_down(
            self.node_id
        ):
            return
        message = Message(MessageKind.HEARTBEAT, self.node_id)
        for peer in self.health.peer_ids:
            self.network.send(message, peer)

    # ------------------------------------------------------------------
    # checkpoint / restart recovery (repro.recovery)
    # ------------------------------------------------------------------

    def take_checkpoint(self) -> None:
        """The system's checkpoint tick, delegated to the coordinator."""
        if self.recovery is not None:
            self.recovery.take_checkpoint()

    @property
    def checkpoint_bytes(self) -> int:
        return 0 if self.recovery is None else self.recovery.checkpoint_bytes

    @property
    def state_transfer_bytes(self) -> int:
        return 0 if self.recovery is None else self.recovery.state_transfer_bytes

    @property
    def restarts(self) -> int:
        return 0 if self.recovery is None else self.recovery.restarts

    def _probe_shadow(self, item: StreamTuple, now: float) -> List[JoinResult]:
        """Join a local arrival against forwarded copies of the other stream."""
        results = []
        if item.stream is StreamId.R:
            for shadow in self._s_shadows.values():
                for match in shadow.matches(item.key):
                    results.append(JoinResult(item, match, self.node_id, now))
        else:
            for shadow in self._r_shadows.values():
                for match in shadow.matches(item.key):
                    results.append(JoinResult(match, item, self.node_id, now))
        return results

    def _log_op(self, now: float, kind: str, payload: tuple) -> None:
        """Defer one oracle/collector operation to collect-time replay.

        The oracle and collector are the data plane's only *global*
        mutable state; logging their operations keyed ``(time, node,
        per-node seq)`` and replaying them in that order makes accuracy a
        function of the per-node histories, not of the event interleaving.
        """
        self.accounting_ops.append((now, self.node_id, self._acct_seq, kind, payload))
        self._acct_seq += 1

    def _report_results(self, results: List[JoinResult], now: float) -> float:
        """Record results; ship each cross-node result to its remote owner.

        "Matching tuples must still be transmitted over the network in
        order to provide the complete result" (Section 5.3): a pair found
        here whose other member originated elsewhere costs one RESULT
        message to that origin.  Deduplication is node-local -- a real site
        cannot know what its peers reported -- so cross-site duplicates
        and spurious matches pay the wire; the consumer deduplicates, and
        accuracy is classified at collect-time replay, never here.
        """
        if results:
            self._log_op(now, "report", tuple(results))
        pause = 0.0
        seen_pairs = self.seen_pairs
        for result in results:
            pair = result.pair_id
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            remote_origin = None
            if result.r_tuple.origin_node != self.node_id:
                remote_origin = result.r_tuple.origin_node
            elif result.s_tuple.origin_node != self.node_id:
                remote_origin = result.s_tuple.origin_node
            if remote_origin is None:
                continue
            message = Message(
                kind=MessageKind.RESULT, source=self.node_id, payload=(None, ()),
            )
            self.network.send(message, remote_origin)
            pause += message.wire_bytes * 8.0 / testbed.SENDER_PACED_BPS
        return pause

    def _forward(
        self, item: StreamTuple, destinations: List[int], now: float, seconds: float
    ) -> float:
        """Transmit ``item`` to each of ``destinations``, in order, and
        return ``seconds`` plus each copy's sender pause, added one term
        at a time.

        A destination with summary deltas pending gets its own message
        with them aboard.  Every other one -- every BASE copy, and most
        under a slow refresh cadence -- shares one message carrying the
        shared empty tuple, built at the first such copy.  Only the
        object is shared: each copy is one ``Network.send`` with its own
        link, wire bytes, draws, event key and tally."""
        outbox = self.policy.outbox
        last_contact = self._last_contact
        shared = None
        for destination in destinations:
            if outbox.has_pending(destination):
                updates = outbox.take(destination)
                message = Message(
                    MessageKind.TUPLE,
                    self.node_id,
                    payload=(item, updates),
                    summary_entries=sum(update.entries for update in updates),
                )
            elif shared is None:
                message = shared = Message(
                    MessageKind.TUPLE, self.node_id, payload=(item, ())
                )
            else:
                message = shared
            self.network.send(message, destination)
            last_contact[destination] = now
            seconds += message.wire_bytes * 8.0 / testbed.SENDER_PACED_BPS
        return seconds

    def _flush_stale_summaries(self, now: float) -> float:
        """Figure 7's standalone path: peers starved of tuples still get
        summary updates, after a dynamic multiple of the inter-arrival time."""
        if self.degradation_ladder is not None and self.degradation_ladder.is_degraded:
            # THROTTLED/SHEDDING suppress the standalone broadcast path
            # outright: starved peers fall back on their last summaries
            # (version guards make stale reads safe), and the uplink
            # pauses saved go to draining the backlog instead.
            self.suppressed_flushes += 1
            return 0.0
        if self._mean_interarrival <= 0:
            return 0.0
        threshold = testbed.SUMMARY_FLUSH_MULTIPLE * self._mean_interarrival
        pause = 0.0
        for peer in sorted(self.policy.outbox.peers_with_pending()):
            last = self._last_contact.get(peer, 0.0)
            if now - last < threshold:
                continue
            updates = self.policy.outbox.take(peer)
            message = Message(
                kind=MessageKind.SUMMARY,
                source=self.node_id,
                payload=(None, updates),
                summary_entries=sum(update.entries for update in updates),
            )
            if self.transport is not None:
                # Standalone summaries are pure control traffic: a lost one
                # starves the peer until the next flush, so they ride the
                # reliable channel.  (Piggy-backed copies stay best-effort;
                # version guards already handle their loss.)
                self.transport.send(message, peer)
            else:
                self.network.send(message, peer)
            self._last_contact[peer] = now
            self.standalone_summaries_sent += 1
            pause += message.wire_bytes * 8.0 / testbed.SENDER_PACED_BPS
        return pause

    def _note_arrival(self, now: float) -> None:
        if self._last_arrival_time is not None:
            gap = now - self._last_arrival_time
            if self._mean_interarrival == 0.0:
                self._mean_interarrival = gap
            else:
                self._mean_interarrival = 0.9 * self._mean_interarrival + 0.1 * gap
        self._last_arrival_time = now

    # ------------------------------------------------------------------
    # remote message processing
    # ------------------------------------------------------------------

    def _process_message(self, message: Message) -> float:
        """Serve one delivery.  Every payload but STATE_TRANSFER's is
        ``(item, updates)``: the forwarded tuple or ``None``, and the
        piggy-backed summary updates (a list, or the shared ``()``)."""
        now = self.scheduler.now
        if message.kind is MessageKind.STATE_TRANSFER:
            return self.recovery.on_state_transfer(message)
        item, updates = message.payload
        for update in updates:
            self.policy.on_remote_summary(message.source, update)
        if updates and self.health is not None:
            self.health.summary_received(message.source, now)
        if item is None:
            return testbed.CPU_SECONDS_PER_PROBE
        if self.time_windows:
            self._refresh_time_windows(now)
        results = self.join.probe_remote(item, now)
        result_pause = self._report_results(results, now) if results else 0.0
        shadows = self._r_shadows if item.stream is StreamId.R else self._s_shadows
        shadow = shadows.get(item.origin_node)
        if shadow is None:
            shadow = shadows[item.origin_node] = self._make_window()
        shadow.append(item)
        self.remote_tuples_processed += 1
        return testbed.CPU_SECONDS_PER_PROBE + result_pause

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def diagnostics(self) -> Dict[str, float]:
        counters = {
            "tuples_processed": float(self.tuples_processed),
            "remote_tuples_processed": float(self.remote_tuples_processed),
            "standalone_summaries": float(self.standalone_summaries_sent),
            "max_queue_depth": float(self.max_queue_depth),
            "busy_seconds": self.busy_seconds,
            "local_results": float(self.join.local_results),
            "probe_results": float(self.join.probe_results),
        }
        for key, value in self.policy.diagnostics().items():
            counters[key] = counters.get(key, 0.0) + value
        if self.fault_injector is not None:
            counters["local_arrivals_dropped"] = float(self.local_arrivals_dropped)
        if self.transport is not None:
            for key, value in self.transport.counters().items():
                counters["reliable_" + key] = value
        if self.health is not None:
            health = self.health
            counters.update(health.counters())
            counters["forced_broadcast_sends"] = float(health.forced_broadcast_sends)
            counters["suppressed_sends"] = float(health.suppressed_sends)
            counters["resyncs"] = float(self.resyncs)
        if self.degradation_ladder is not None:
            counters["shed_tuples"] = float(self.shed_tuples)
            counters["shed_messages"] = float(self.shed_messages)
            counters["suppressed_flushes"] = float(self.suppressed_flushes)
            ladder_counters = self.degradation_ladder.counters(self.scheduler.now)
            for key, value in ladder_counters.items():
                counters["overload_" + key] = value
        if self.recovery is not None:
            counters.update(self.recovery.counters())
        return counters
