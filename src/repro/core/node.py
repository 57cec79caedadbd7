"""The distributed stream-processing node (Figure 7's runtime).

Each node owns, **per concurrent query** (Section 3's multi-query
setting; single-query systems simply have one):

* its local segments R_i and S_i of that query's stream windows;
* *shadow windows* holding forwarded copies received from peers -- the
  materialization of the cross-partition joins R_i |><| S_j at this node;
* a forwarding policy (summaries + destination choice).

All queries share the node's single service queue and its sender-paced
uplink, so concurrent queries contend for exactly the resources the
paper's throughput analysis is about.

The service model mirrors the paper's WAN emulation: the testbed *pauses
the sender* one second per 90 kilobits, so transmission cost is charged to
the sending node's service time (links then add propagation latency only).
A node saturated by (N-1)-way broadcast therefore processes fewer tuples
per second -- which is exactly the effect Figure 11 measures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.config import SystemConfig, WindowKind
from repro.core.health import PeerHealthMonitor
from repro.core.policies.base import ForwardingPolicy
from repro.errors import ConfigurationError
from repro.join.ground_truth import GroundTruthOracle
from repro.join.hash_join import JoinResult, SymmetricHashJoin
from repro.metrics.accounting import ResultCollector
from repro.core.summaries import SummaryUpdate
from repro.net.message import (
    HEADER_BYTES,
    SUMMARY_COEFFICIENT_BYTES,
    Message,
    MessageKind,
)
from repro.net.reliable import ReliableTransport
from repro.net.simulator import Event, EventKeySource, EventScheduler
from repro.net.topology import Network
from repro.overload import DegradationLadder, DegradationMode, OverloadDetector
from repro.recovery.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    encode_blob,
    restore_window,
    window_state,
)
from repro.recovery.delta import (
    SummaryHistory,
    apply_delta,
    decode_payload,
    delta_wire_entries,
    encode_delta,
    payload_digest,
)
from repro.recovery.machine import RecoveryMachine, RecoveryPhase
from repro.recovery.settings import RecoverySettings
from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import (
    CountWindow,
    LandmarkWindow,
    SlidingWindow,
    TimeWindow,
)


@dataclass
class QueryRuntime:
    """One query's join state at one node."""

    query_id: int
    join: SymmetricHashJoin
    policy: ForwardingPolicy
    oracle: GroundTruthOracle
    collector: ResultCollector
    shadow_windows: Dict[StreamId, Dict[int, SlidingWindow]] = field(
        default_factory=lambda: {StreamId.R: {}, StreamId.S: {}}
    )
    seen_pairs: set = field(default_factory=set)
    """Result pairs this node already shipped (node-local RESULT dedup)."""


class JoinProcessingNode:
    """One processing site of the distributed join."""

    def __init__(
        self,
        node_id: int,
        config: SystemConfig,
        scheduler: EventScheduler,
        network: Network,
        policy: ForwardingPolicy,
        oracle: GroundTruthOracle,
        collector: ResultCollector,
        transport: Optional[ReliableTransport] = None,
        fault_injector=None,
        profiler=None,
        telemetry=None,
        recovery: Optional[RecoverySettings] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
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
        self._queue: Deque[Tuple[str, object]] = deque()
        self._busy = False
        self._last_contact: Dict[int, float] = {}
        self._mean_interarrival = 0.0
        self._last_arrival_time: Optional[float] = None
        self.tuples_processed = 0
        self.remote_tuples_processed = 0
        self.standalone_summaries_sent = 0
        self.max_queue_depth = 0
        self.busy_seconds = 0.0
        self.transport = transport
        """Reliable control-plane endpoint; ``None`` runs the paper's
        pure best-effort wire protocol (the default)."""
        if transport is not None:
            transport.key_source = self._event_keys
        self.profiler = profiler
        """Optional :class:`~repro.profiling.KernelProfiler`; when set,
        every service is accounted to a per-kind kernel section."""
        self.fault_injector = fault_injector
        self.health: Optional[PeerHealthMonitor] = None
        self.local_arrivals_dropped = 0
        self.forced_broadcast_sends = 0
        self.suppressed_sends = 0
        self.resyncs = 0
        self._peer_ids = tuple(p for p in range(config.num_nodes) if p != node_id)
        if transport is not None:
            self.health = PeerHealthMonitor(
                node_id,
                self._peer_ids,
                transport.settings,
                on_recovery=self._on_peer_recovered,
            )
        # --- checkpoint/restart recovery (repro.recovery) ---------------
        self.recovery_settings = recovery
        self.checkpoint_store = checkpoint_store
        self.recovery_machine: Optional[RecoveryMachine] = None
        if recovery is not None and recovery.enabled:
            self.recovery_machine = RecoveryMachine(node_id)
        self._queries: Dict[int, QueryRuntime] = {}
        self.add_query(0, policy, oracle, collector)
        self._replay_log: Deque[StreamTuple] = deque()
        self._pending_messages: List[Message] = []
        self._transfer_timers: Dict[int, Event] = {}
        self._transfer_attempts: Dict[int, int] = {}
        self._synced_peers: set = set()
        self._restore_event: Optional[Event] = None
        self._catchup_deadline: Optional[Event] = None
        self.restarts = 0
        self.checkpoints_taken = 0
        self.checkpoint_bytes = 0
        self.tuples_logged = 0
        self.tuples_replayed = 0
        self.replay_dropped = 0
        self.state_transfer_bytes = 0
        self.state_transfer_delta_bytes = 0
        self.state_transfer_full_bytes = 0
        self.state_transfer_bytes_saved = 0
        self.state_transfer_fallbacks = 0
        # --- overload protection (repro.overload) -----------------------
        self.overload_settings = config.overload if config.overload.enabled else None
        self.degradation_ladder: Optional[DegradationLadder] = None
        self._overload_detector: Optional[OverloadDetector] = None
        if self.overload_settings is not None:
            self.degradation_ladder = DegradationLadder(node_id)
            self._overload_detector = OverloadDetector(
                self.overload_settings, self.degradation_ladder
            )
        self.shed_tuples = 0
        self.shed_messages = 0
        self.suppressed_flushes = 0
        self._resync_claims: Dict[int, Dict[Tuple[int, str, str], Tuple[int, str]]] = {}
        """Per peer, per ``(query_id, algorithm, stream value)`` slot: the
        ``(version, digest)`` the latest restore recovered -- what the
        delta state-transfer request claims as its resync base."""
        self._resync_bases: Dict[int, Dict[Tuple[int, str, str], object]] = {}
        """The restored payloads behind the claims.  Deltas apply against
        these (not the live remote table) so a retransmitted response
        still applies cleanly after an earlier one already landed."""
        self._restored_watermark: Optional[float] = None
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
            self._fanout_histogram = telemetry.registry.histogram(
                "repro_node_fanout",
                edges=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
                node=node_id,
            )

    # ------------------------------------------------------------------
    # query management
    # ------------------------------------------------------------------

    def add_query(
        self,
        query_id: int,
        policy: ForwardingPolicy,
        oracle: GroundTruthOracle,
        collector: ResultCollector,
    ) -> None:
        """Install the runtime for one concurrent query at this node."""
        if query_id in self._queries:
            raise ConfigurationError("query %d already installed" % query_id)
        self._queries[query_id] = QueryRuntime(
            query_id=query_id,
            join=SymmetricHashJoin(
                self.node_id,
                r_window=self._make_window(shadow=False),
                s_window=self._make_window(shadow=False),
            ),
            policy=policy,
            oracle=oracle,
            collector=collector,
        )
        self._query_order = tuple(sorted(self._queries))
        self._install_delta_history(policy)

    @property
    def _delta_transfer_enabled(self) -> bool:
        return (
            self.recovery_settings is not None
            and self.recovery_settings.enabled
            and self.recovery_settings.delta_state_transfer
        )

    def _install_delta_history(self, policy: ForwardingPolicy) -> None:
        """Attach a snapshot-history ring to the policy's outbox.

        Every node needs one when delta transfers are on -- any peer may
        crash and claim a watermark against *this* node's broadcasts.
        """
        if self._delta_transfer_enabled and policy.outbox.history is None:
            policy.outbox.history = SummaryHistory(
                self.recovery_settings.delta_history_limit
            )

    def query(self, query_id: int = 0) -> QueryRuntime:
        """The runtime of one query (0 is the first/only query)."""
        return self._queries[query_id]

    @property
    def query_ids(self) -> Tuple[int, ...]:
        return self._query_order

    # Single-query conveniences (the common case and the test surface).

    @property
    def policy(self) -> ForwardingPolicy:
        return self._queries[0].policy

    @property
    def join(self) -> SymmetricHashJoin:
        return self._queries[0].join

    @property
    def oracle(self) -> GroundTruthOracle:
        return self._queries[0].oracle

    @property
    def collector(self) -> ResultCollector:
        return self._queries[0].collector

    @property
    def shadow_windows(self) -> Dict[StreamId, Dict[int, SlidingWindow]]:
        return self._queries[0].shadow_windows

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------

    def on_local_arrival(self, item: StreamTuple) -> None:
        """A tuple of this node's own stream segment arrived."""
        if self._should_log_for_replay():
            # The site is down but restartable: its ingest path keeps a
            # durable arrival log (the paper's sources are external feeds,
            # so the tuples exist whether the process does or not) and the
            # recovery protocol replays them after restore.
            self._log_for_replay(item)
            return
        if self.fault_injector is not None and self.fault_injector.node_down(
            self.node_id
        ):
            # A crashed site loses its local arrivals outright; the oracle
            # never observes them either, so truth and report stay
            # comparable -- the crash costs coverage, not correctness.
            self.local_arrivals_dropped += 1
            return
        self._enqueue(("local", item))

    def _should_log_for_replay(self) -> bool:
        """Whether local arrivals currently go to the replay log.

        The recovery machine's phase is authoritative: DOWN and RESTORING
        mean the process cannot serve, but a restartable site's arrival
        log persists.  Non-restartable crashes never enter those phases,
        so they keep the legacy drop semantics.
        """
        if self.recovery_machine is None:
            return False
        return self.recovery_machine.phase in (
            RecoveryPhase.DOWN,
            RecoveryPhase.RESTORING,
        )

    def _log_for_replay(self, item: StreamTuple) -> None:
        capacity = self.recovery_settings.replay_log_capacity
        if len(self._replay_log) >= capacity:
            self.replay_dropped += 1
            return
        self._replay_log.append(item)
        self.tuples_logged += 1

    def on_message(self, message: Message) -> None:
        """Network delivery callback.

        With the reliable transport enabled this is also the demux point:
        ACKs cancel retransmit timers, heartbeats only feed the failure
        detector, and sequenced control messages pass through the ARQ
        receiver (which may release zero or several messages in order).
        """
        if (
            self.recovery_machine is not None
            and self.recovery_machine.phase is RecoveryPhase.RESTORING
        ):
            # The process is back up but its state is mid-restore; park
            # deliveries and run them through this demux once restored.
            self._pending_messages.append(message)
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
                    self._enqueue(("message", released))
                return
        self._enqueue(("message", message))

    def _enqueue(self, work: Tuple[str, object]) -> None:
        kind, payload = work
        if kind == "message" and payload.kind is MessageKind.STATE_TRANSFER:
            # Recovery anti-entropy jumps the service queue: a rejoining
            # node must not wait behind the replay backlog it is working
            # through, and a serving peer answers resync requests ahead of
            # its data plane -- otherwise on a saturated mesh the catch-up
            # window is bounded by queue depth instead of the WAN.
            # It also bypasses the overload bound: shedding the recovery
            # handshake would deadlock a rejoining node behind the very
            # congestion it is trying to rejoin through.
            self._queue.appendleft(work)
        elif (
            self.overload_settings is not None
            and len(self._queue) >= self.overload_settings.queue_bound
        ):
            self._admit_over_bound(work)
        else:
            self._queue.append(work)
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        if self._overload_detector is not None:
            self._observe_overload(len(self._queue))
        self._start_next()

    # Shedding priority classes, highest kept longest.  Remote tuple
    # copies go first: the origin node already counted them toward its
    # own report, so dropping a copy costs recall on cross-partition
    # pairs only.  Local arrivals are this node's sole chance to observe
    # its own stream segment.  Summary/control/result messages keep the
    # mesh's metadata coherent, and STATE_TRANSFER (priority 3, never a
    # victim) is the recovery path itself.
    _SHED_PRIORITY_REMOTE_TUPLE = 0
    _SHED_PRIORITY_LOCAL = 1
    _SHED_PRIORITY_CONTROL = 2
    _SHED_PRIORITY_TRANSFER = 3

    @classmethod
    def _work_priority(cls, work: Tuple[str, object]) -> int:
        kind, payload = work
        if kind != "message":
            return cls._SHED_PRIORITY_LOCAL
        if payload.kind is MessageKind.STATE_TRANSFER:
            return cls._SHED_PRIORITY_TRANSFER
        if payload.kind is MessageKind.TUPLE:
            return cls._SHED_PRIORITY_REMOTE_TUPLE
        return cls._SHED_PRIORITY_CONTROL

    def _admit_over_bound(self, work: Tuple[str, object]) -> None:
        """The queue is at its bound: shed deterministically by priority.

        The victim is the strictly lowest-priority queued entry, tail-most
        among equals (the youngest low-value work loses first).  Incoming
        work that does not outrank the victim is shed itself, so the queue
        never exceeds ``queue_bound`` and admission is a pure function of
        queue contents -- no RNG, no wall clock.
        """
        queue = self._queue
        incoming = self._work_priority(work)
        victim_index = 0
        victim_priority: Optional[int] = None
        for index in range(len(queue) - 1, -1, -1):
            priority = self._work_priority(queue[index])
            if victim_priority is None or priority < victim_priority:
                victim_index = index
                victim_priority = priority
        if victim_priority is None or incoming <= victim_priority:
            self._shed(work)
        else:
            victim = queue[victim_index]
            del queue[victim_index]
            self._shed(victim)
            queue.append(work)

    def _shed(self, work: Tuple[str, object]) -> None:
        """Drop one unit of queued work, with honest accounting.

        Shed local tuples are logged as ``shed`` accounting ops: the
        ground-truth oracle still charges every result pair they would
        have completed against live windows, so shedding degrades the
        measured recall instead of quietly shrinking the denominator.
        Shed remote work is already counted at its origin and only
        decrements this node's side of the ledger.
        """
        kind, payload = work
        now = self.scheduler.now
        if kind == "local":
            item = payload.with_timestamp(now)
            self.shed_tuples += 1
            self._log_op(self._queries[item.query_id], now, "shed", (item,))
        else:
            self.shed_messages += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "overload.shed",
                category="overload",
                node=self.node_id,
                time=now,
                kind=kind,
                count=1,
            )

    def _observe_overload(self, queue_depth: int) -> None:
        now = self.scheduler.now
        for trigger, mode in self._overload_detector.observe(now, queue_depth):
            self._on_mode_change(trigger, mode, queue_depth, now)

    def _on_mode_change(
        self, trigger: str, mode: DegradationMode, queue_depth: int, now: float
    ) -> None:
        """One degradation-ladder transition landed: apply its mechanics."""
        stretch = (
            1
            if mode is DegradationMode.NORMAL
            else self.overload_settings.throttle_refresh_stretch
        )
        for runtime in self._queries.values():
            runtime.policy.set_refresh_stretch(stretch)
        if self.telemetry is not None:
            self.telemetry.emit(
                "overload.mode",
                category="overload",
                node=self.node_id,
                time=now,
                trigger=trigger,
                mode=mode.value,
                queue_depth=queue_depth,
            )

    def _start_next(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        kind, payload = self._queue.popleft()
        if self.profiler is None:
            service_time = self._dispatch(kind, payload)
        else:
            with self.profiler.section("node.%s" % kind):
                service_time = self._dispatch(kind, payload)
        if self.fault_injector is not None:
            # An active OVERLOAD fault stretches this node's service times
            # (CPU contention / a slow collocated tenant); factor 1.0 --
            # no fault covering this node -- is a bit-exact no-op.
            factor = self.fault_injector.service_factor(self.node_id)
            if factor != 1.0:
                service_time *= factor
        self.busy_seconds += service_time
        if self.telemetry is not None:
            # The service time is known synchronously, so one complete
            # span per service -- no begin/end pairing to reconcile.
            self.telemetry.emit(
                "node.service",
                category="node",
                node=self.node_id,
                time=self.scheduler.now,
                dur_s=service_time,
                kind=kind,
            )
        self.scheduler.schedule_in(
            service_time,
            self._finish_service,
            key=self._event_keys.next_key(),
        )

    def _dispatch(self, kind: str, payload: object) -> float:
        if kind == "local":
            return self._process_local(payload)
        return self._process_message(payload)

    def _finish_service(self) -> None:
        self._busy = False
        if self._overload_detector is not None:
            # The drain side of the hysteresis loop: arrivals can only
            # escalate, so recovery has to be observed here, where the
            # queue actually shrinks.
            self._observe_overload(len(self._queue))
        self._start_next()

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # window construction
    # ------------------------------------------------------------------

    def _make_window(self, shadow: bool) -> SlidingWindow:
        if self.config.window_kind is WindowKind.TIME:
            return TimeWindow(self.config.window_seconds)
        capacity = (
            self.config.effective_shadow_window if shadow else self.config.window_size
        )
        if self.config.window_kind is WindowKind.LANDMARK:
            # Shadow windows reset on landmark copies too: the origin's
            # window emptied at that moment, so its copies are stale.
            return LandmarkWindow(self.config.landmark_key, max_size=capacity)
        return CountWindow(capacity)

    def _shadow_window(
        self, runtime: QueryRuntime, stream: StreamId, origin: int
    ) -> SlidingWindow:
        windows = runtime.shadow_windows[stream]
        if origin not in windows:
            windows[origin] = self._make_window(shadow=True)
        return windows[origin]

    def _refresh_time_windows(self, runtime: QueryRuntime, now: float) -> None:
        """Expire time-window tuples between arrivals (probe freshness).

        Count windows evict only on insert; time windows must not let a
        probe match a tuple whose span already lapsed, so both the local
        and the shadow windows are advanced to ``now`` first.  Local
        expirations propagate to the oracle and the deletable summaries.
        """
        if self.config.window_kind is not WindowKind.TIME:
            return
        for stream in (StreamId.R, StreamId.S):
            window = runtime.join.window(stream)
            expired = window.advance_to(now)
            if expired:
                self._log_op(runtime, now, "evict", (stream, tuple(expired)))
                runtime.policy.on_evictions(stream, expired)
            for shadow in runtime.shadow_windows[stream].values():
                shadow.advance_to(now)

    # ------------------------------------------------------------------
    # local tuple processing (Figure 7)
    # ------------------------------------------------------------------

    def _process_local(self, raw_item: StreamTuple) -> float:
        now = self.scheduler.now
        item = raw_item.with_timestamp(now)
        runtime = self._queries[item.query_id]
        self._note_arrival(now)
        self._refresh_time_windows(runtime, now)

        # Probe + insert against the local windows, probe the shadow copies.
        results, evicted = runtime.join.insert_local(item, now)
        results.extend(self._probe_shadow(runtime, item, now))
        self._log_op(runtime, now, "arrival", (item, tuple(evicted)))
        result_pause = self._report_results(runtime, results, now)

        # Summaries update before the forwarding decision (Figure 7 order).
        runtime.policy.on_local_insert(item, evicted)
        runtime.policy.observe_congestion(len(self._queue))
        destinations = runtime.policy.choose_destinations(item)
        destinations = self._apply_degradation(runtime, destinations, now)
        if self._fanout_histogram is not None:
            self._fanout_histogram.observe(float(len(destinations)))

        transmission_seconds = result_pause
        for destination in destinations:
            transmission_seconds += self._send_tuple(item, destination, now)
        transmission_seconds += self._flush_stale_summaries(now)

        self.tuples_processed += 1
        return self.config.cpu_seconds_per_tuple + transmission_seconds

    def _apply_degradation(
        self, runtime: QueryRuntime, destinations: List[int], now: float
    ) -> List[int]:
        """Adjust a forwarding decision for peers that cannot be trusted.

        Peers whose summaries aged past the staleness budget are handled
        per ``degradation_mode``: "broadcast" forces a copy to them
        (BASE-style -- their summary can no longer rule matches out, so
        recall is preserved at message cost), "suppress" drops the flow
        toward them.  Suspected-dead peers are always suppressed: their
        copies would be dropped at delivery anyway, and the uplink pause
        they cost is real.
        """
        if self.health is None:
            return destinations
        chosen = set(destinations)
        for peer in runtime.policy.peer_ids:
            self.health.observe_staleness(peer, now)
            if self.health.is_suspected(peer, now):
                if peer in chosen:
                    chosen.discard(peer)
                    self.suppressed_sends += 1
                continue
            if not self.health.is_stale(peer, now):
                continue
            if self.health.settings.degradation_mode == "broadcast":
                if peer not in chosen:
                    chosen.add(peer)
                    self.forced_broadcast_sends += 1
            elif peer in chosen:
                chosen.discard(peer)
                self.suppressed_sends += 1
        return sorted(chosen)

    def _on_peer_recovered(self, peer: int) -> None:
        """A suspected peer spoke again: queue it full-state summaries."""
        self.resyncs += 1
        for query_id in sorted(self._queries):
            self._queries[query_id].policy.resync_peer(peer)

    def send_heartbeats(self) -> None:
        """Emit one best-effort HEARTBEAT probe to every peer.

        Scheduled by the system at the configured interval; header-only
        messages that bypass the service queue (out-of-band liveness
        probes, not workload).  A crashed node stays silent.
        """
        if self.health is None:
            return
        if self.fault_injector is not None and self.fault_injector.node_down(
            self.node_id
        ):
            return
        for peer in self.health.peer_ids:
            self.network.send(
                Message(
                    kind=MessageKind.HEARTBEAT,
                    source=self.node_id,
                    destination=peer,
                )
            )

    # ------------------------------------------------------------------
    # checkpoint / restart recovery (repro.recovery)
    # ------------------------------------------------------------------

    def take_checkpoint(self) -> None:
        """Snapshot this node's durable per-query state into the store.

        Scheduled by the system on the simulated clock at the configured
        checkpoint interval.  A crashed or still-recovering node skips the
        tick -- there is no process to run it.
        """
        if self.recovery_machine is None or self.checkpoint_store is None:
            return
        if self.fault_injector is not None and self.fault_injector.node_down(
            self.node_id
        ):
            return
        if not self.recovery_machine.is_serving:
            return
        now = self.scheduler.now
        blob = encode_blob(self._checkpoint_state(now))
        self.checkpoint_store.save(self.node_id, now, blob)
        self.checkpoints_taken += 1
        self.checkpoint_bytes += len(blob)
        if self.telemetry is not None:
            self.telemetry.emit(
                "recovery.checkpoint",
                category="recovery",
                node=self.node_id,
                time=now,
                size_bytes=len(blob),
            )

    def _checkpoint_state(self, now: float) -> Dict[str, object]:
        queries: Dict[str, object] = {}
        for query_id in sorted(self._queries):
            runtime = self._queries[query_id]
            queries[str(query_id)] = {
                "policy": runtime.policy.checkpoint_state(),
                "windows": {
                    stream.value: window_state(runtime.join.window(stream))
                    for stream in (StreamId.R, StreamId.S)
                },
                "shadows": {
                    stream.value: {
                        str(origin): window_state(window)
                        for origin, window in sorted(
                            runtime.shadow_windows[stream].items()
                        )
                    }
                    for stream in (StreamId.R, StreamId.S)
                },
                "join": {
                    "local_results": runtime.join.local_results,
                    "probe_results": runtime.join.probe_results,
                },
                # The freshest remote summaries known now: restore replays
                # them through on_remote_summary, and the delta state
                # transfer claims them as its resync base (the blob's
                # taken_at is the watermark).  Policies without remote
                # state (BASE, round-robin) checkpoint an empty list.
                "remote": (
                    runtime.policy.remote.checkpoint_state()
                    if getattr(runtime.policy, "remote", None) is not None
                    else []
                ),
            }
        return {
            "version": CHECKPOINT_VERSION,
            "node": self.node_id,
            "taken_at": now,
            "interarrival": {
                "mean": self._mean_interarrival,
                "last": self._last_arrival_time,
            },
            "queries": queries,
        }

    def _restore_state(self, state: Dict[str, object]) -> None:
        interarrival = state["interarrival"]
        self._mean_interarrival = float(interarrival["mean"])
        last = interarrival["last"]
        self._last_arrival_time = None if last is None else float(last)
        self._last_contact = {}
        self._resync_claims = {}
        self._resync_bases = {}
        self._restored_watermark = float(state["taken_at"])
        for query_key, query_state in state["queries"].items():
            query_id = int(query_key)
            runtime = self._queries[query_id]
            runtime.policy.restore_state(query_state["policy"])
            for stream in (StreamId.R, StreamId.S):
                restore_window(
                    runtime.join.window(stream),
                    query_state["windows"][stream.value],
                )
                shadows: Dict[int, SlidingWindow] = {}
                for origin_key, shadow_state in query_state["shadows"][
                    stream.value
                ].items():
                    window = self._make_window(shadow=True)
                    restore_window(window, shadow_state)
                    shadows[int(origin_key)] = window
                runtime.shadow_windows[stream] = shadows
            runtime.join.local_results = int(query_state["join"]["local_results"])
            runtime.join.probe_results = int(query_state["join"]["probe_results"])
            self._restore_remote_summaries(
                query_id, runtime, query_state.get("remote", [])
            )

    def _restore_remote_summaries(
        self, query_id: int, runtime: QueryRuntime, entries: List[List[object]]
    ) -> None:
        """Replay checkpointed remote summaries through the policy.

        Replaying through ``on_remote_summary`` (rather than poking the
        table directly) rebuilds every derived cache -- remote Bloom
        filters, sketch copies -- exactly as a live broadcast would.  The
        replayed snapshot slots double as the bases the delta state
        transfer claims toward each peer."""
        managers = getattr(runtime.policy, "managers", None)
        if not entries or managers is None:
            return
        for peer, stream_value, version, encoded in entries:
            peer = int(peer)
            stream = StreamId(stream_value)
            payload = decode_payload(encoded)
            manager = managers[stream]
            algorithm = getattr(manager, "algorithm", None)
            if algorithm is None:
                algorithm = manager.ALGORITHM
            update = SummaryUpdate(
                algorithm=algorithm,
                stream=stream,
                version=int(version),
                window_size=manager.window_size,
                entries=(
                    getattr(manager, "entries", None) or len(payload)
                ),
                payload=payload,
                full_state=True,
            )
            runtime.policy.on_remote_summary(peer, update)
            if self._delta_transfer_enabled and isinstance(payload, np.ndarray):
                slot = (query_id, algorithm, stream_value)
                self._resync_claims.setdefault(peer, {})[slot] = (
                    int(version),
                    payload_digest(payload),
                )
                self._resync_bases.setdefault(peer, {})[slot] = payload

    def on_crash(self) -> None:
        """The restartable crash started: the process and its soft state die."""
        if self.recovery_machine is None or not self.recovery_machine.can_apply(
            "crash"
        ):
            return
        now = self.scheduler.now
        self.recovery_machine.apply("crash", now)
        # Everything in flight inside the process is lost; timers from an
        # earlier recovery incarnation must not fire into this one.
        self._queue.clear()
        self._pending_messages.clear()
        self._replay_log.clear()
        # The queue the dead process measured died with it: a restarted
        # node's peak depth and congestion throttle must reflect only
        # what the new incarnation observes.
        self.max_queue_depth = 0
        for runtime in self._queries.values():
            runtime.policy.reset_congestion()
        self._resync_claims = {}
        self._resync_bases = {}
        self._restored_watermark = None
        self._cancel_recovery_timers()
        if self.telemetry is not None:
            self.telemetry.emit(
                "recovery.crash", category="recovery", node=self.node_id, time=now
            )

    def on_restart(self) -> None:
        """The downtime elapsed: boot, then restore after ``restore_delay_s``."""
        if self.recovery_machine is None or not self.recovery_machine.can_apply(
            "restart"
        ):
            return
        now = self.scheduler.now
        self.recovery_machine.apply("restart", now)
        self.restarts += 1
        if self.transport is not None:
            # ARQ sequence numbers died with the process; peers reset
            # their side on receiving our state-transfer request.
            self.transport.reset()
        if self.health is not None:
            self.health.note_restart(now)
        if self.telemetry is not None:
            self.telemetry.emit(
                "recovery.restart", category="recovery", node=self.node_id, time=now
            )
        self._restore_event = self.scheduler.schedule_in(
            self.recovery_settings.restore_delay_s,
            self._complete_restore,
            key=self._event_keys.next_key(),
        )

    def _complete_restore(self) -> None:
        self._restore_event = None
        now = self.scheduler.now
        checkpoint = None
        if self.checkpoint_store is not None:
            checkpoint = self.checkpoint_store.latest(self.node_id)
        if checkpoint is not None:
            self._restore_state(checkpoint.state())
        replay = list(self._replay_log)
        self._replay_log.clear()
        self.recovery_machine.apply("restored", now)
        if self.telemetry is not None:
            self.telemetry.emit(
                "recovery.restored",
                category="recovery",
                node=self.node_id,
                time=now,
                checkpoint_age_s=(
                    now - checkpoint.taken_at if checkpoint is not None else -1.0
                ),
                replayed_tuples=len(replay),
            )
        # Replay the outage's logged arrivals through the normal local
        # path (windows, summaries, oracle, forwarding), then the
        # deliveries that piled up while mid-restore.
        self.tuples_replayed += len(replay)
        for item in replay:
            self._enqueue(("local", item))
        pending = list(self._pending_messages)
        self._pending_messages.clear()
        for message in pending:
            self.on_message(message)
        self._begin_catchup(now)

    def _begin_catchup(self, now: float) -> None:
        self._synced_peers = set()
        self._transfer_attempts = {}
        if not self._peer_ids:
            self._complete_catchup(degraded=False)
            return
        for peer in self._peer_ids:
            self._send_transfer_request(peer)
        self._catchup_deadline = self.scheduler.schedule_in(
            self.recovery_settings.catchup_timeout_s,
            self._on_catchup_deadline,
            key=self._event_keys.next_key(),
        )

    def _send_transfer_request(self, peer: int) -> None:
        attempts = self._transfer_attempts.get(peer, 0)
        self._transfer_attempts[peer] = attempts + 1
        if self._delta_transfer_enabled:
            # The watermark and per-slot claims ride the fixed request
            # header (like Message.seq): the request stays header-sized
            # on the modeled wire in both transfer modes.
            detail = {
                "watermark": self._restored_watermark,
                "slots": dict(self._resync_claims.get(peer, {})),
            }
        else:
            detail = None
        request = Message(
            kind=MessageKind.STATE_TRANSFER,
            source=self.node_id,
            destination=peer,
            payload=("request", detail),
        )
        # Deliberately best-effort: the peer's ARQ receive channel for us
        # still expects the pre-crash sequence numbers until it resets on
        # receipt, so a sequenced request would be suppressed as a
        # duplicate.  Loss is covered by the bounded backoff retries.
        self.network.send(request)
        self.state_transfer_bytes += request.size_bytes()
        if attempts < self.recovery_settings.max_transfer_retries:
            delay = self.recovery_settings.transfer_timeout_s * (
                self.recovery_settings.transfer_backoff ** attempts
            )
            self._transfer_timers[peer] = self.scheduler.schedule_in(
                delay,
                lambda p=peer: self._on_transfer_timeout(p),
                key=self._event_keys.next_key(),
            )

    def _on_transfer_timeout(self, peer: int) -> None:
        self._transfer_timers.pop(peer, None)
        if (
            self.recovery_machine is None
            or self.recovery_machine.phase is not RecoveryPhase.CATCHING_UP
            or peer in self._synced_peers
        ):
            return
        self._send_transfer_request(peer)

    def _mark_peer_synced(self, peer: int, now: float) -> None:
        if (
            self.recovery_machine is None
            or self.recovery_machine.phase is not RecoveryPhase.CATCHING_UP
            or peer in self._synced_peers
        ):
            return
        self._synced_peers.add(peer)
        timer = self._transfer_timers.pop(peer, None)
        if timer is not None:
            timer.cancel()
        if len(self._synced_peers) >= len(self._peer_ids):
            self._complete_catchup(degraded=False)

    def _on_catchup_deadline(self) -> None:
        self._catchup_deadline = None
        if (
            self.recovery_machine is not None
            and self.recovery_machine.phase is RecoveryPhase.CATCHING_UP
        ):
            self._complete_catchup(degraded=True)

    def _complete_catchup(self, degraded: bool) -> None:
        now = self.scheduler.now
        self._cancel_recovery_timers(keep_restore=True)
        self.recovery_machine.apply("timeout" if degraded else "synced", now)
        if self.telemetry is not None:
            self.telemetry.emit(
                "recovery.live",
                category="recovery",
                node=self.node_id,
                time=now,
                degraded=degraded,
                rejoin_latency_s=self.recovery_machine.rejoin_latencies[-1],
                peers_synced=len(self._synced_peers),
            )

    def _cancel_recovery_timers(self, keep_restore: bool = False) -> None:
        if not keep_restore and self._restore_event is not None:
            self._restore_event.cancel()
            self._restore_event = None
        for timer in self._transfer_timers.values():
            timer.cancel()
        self._transfer_timers.clear()
        self._transfer_attempts = {}
        if self._catchup_deadline is not None:
            self._catchup_deadline.cancel()
            self._catchup_deadline = None

    def _process_state_transfer(self, message: Message) -> float:
        """Serve or absorb recovery anti-entropy traffic."""
        now = self.scheduler.now
        direction = message.payload[0]
        if direction == "request":
            return self._serve_state_transfer(message, now)
        # A peer's response: apply its snapshots (or deltas) and mark it
        # synced.
        self.state_transfer_bytes += message.size_bytes()
        if direction == "delta_response":
            _, _, slots = message.payload
            for slot in slots:
                self._apply_transfer_slot(message.source, slot)
            received = bool(slots)
        else:
            _, updates = message.payload
            for update_query_id, update in updates:
                self._queries[update_query_id].policy.on_remote_summary(
                    message.source, update
                )
            received = bool(updates)
        if received and self.health is not None:
            self.health.summary_received(message.source, now)
        self._mark_peer_synced(message.source, now)
        return self.config.cpu_seconds_per_probe

    def _serve_state_transfer(self, message: Message, now: float) -> float:
        """Answer a rejoining peer's resync request.

        The requester restarted from scratch: reset our ARQ channels
        toward it (its sequence numbers are back at zero) and resync
        every query -- as watermark deltas where its claims check out,
        as full snapshots otherwise (and always for legacy requests).
        """
        if self.transport is not None:
            self.transport.reset_peer(message.source)
        self.resyncs += 1
        for query_id in sorted(self._queries):
            self._queries[query_id].policy.resync_peer(message.source)
        updates = self._take_pending_updates(message.source)
        full_entries = sum(update.entries for _, update in updates)
        detail = message.payload[1]
        if detail is None:
            response = Message(
                kind=MessageKind.STATE_TRANSFER,
                source=self.node_id,
                destination=message.source,
                payload=("response", updates),
                summary_entries=full_entries,
            )
        else:
            response = self._build_delta_response(
                message.source, detail, updates, full_entries, now
            )
        if self.transport is not None:
            self.transport.send(response)
        else:
            self.network.send(response)
        self.state_transfer_bytes += response.size_bytes()
        self._last_contact[message.source] = now
        # The sender pause is charged at the full-snapshot size in both
        # modes: assembling a delta still walks the complete summary
        # state, and pinning the serve timeline keeps delta on/off runs
        # on identical event schedules -- the savings show up on the
        # wire counters, not the clock.
        full_size = HEADER_BYTES + full_entries * SUMMARY_COEFFICIENT_BYTES
        pause = full_size * 8.0 / self.config.sender_paced_bps
        return self.config.cpu_seconds_per_probe + pause

    def _build_delta_response(
        self,
        peer: int,
        detail: Dict[str, object],
        updates: List[Tuple[int, SummaryUpdate]],
        full_entries: int,
        now: float,
    ) -> Message:
        """Encode one resync response against the requester's claims.

        Each snapshot slot the requester claimed (version + digest) is
        looked up in the outbox's :class:`SummaryHistory`; if the claimed
        base is still there and verifies, only the changed entries ship.
        Any claim the history cannot honor downgrades the *whole*
        response to full snapshots (one counted fallback), so a response
        is never a mix of trusted and untrusted bases."""
        claims = detail.get("slots") or {}
        prepared: List[Tuple[tuple, int]] = []
        fallback = False
        for query_id, update in updates:
            slot_key = (query_id, update.algorithm, update.stream.value)
            claim = claims.get(slot_key)
            chosen = (("full", query_id, update), update.entries)
            if claim is not None and isinstance(update.payload, np.ndarray):
                version, digest = claim
                history = self._queries[query_id].policy.outbox.history
                base = (
                    history.view(update.algorithm, update.stream, int(version))
                    if history is not None
                    else None
                )
                if base is None or payload_digest(base) != digest:
                    # The snapshot ring no longer covers the claimed
                    # version (or the digest disagrees -- version
                    # counters roll back across our own restores, so
                    # versions alone are never trusted).
                    fallback = True
                else:
                    blob = encode_delta(base, update.payload)
                    if blob is not None:
                        wire = delta_wire_entries(blob, update.entries)
                        if wire < update.entries:
                            chosen = (
                                (
                                    "delta",
                                    query_id,
                                    update.algorithm,
                                    update.stream.value,
                                    update.version,
                                    update.window_size,
                                    update.entries,
                                    blob,
                                ),
                                wire,
                            )
            prepared.append(chosen)
        if fallback:
            prepared = [
                (("full", query_id, update), update.entries)
                for query_id, update in updates
            ]
        slots = [slot for slot, _ in prepared]
        wire_entries = sum(wire for _, wire in prepared)
        any_delta = any(slot[0] == "delta" for slot in slots)
        response = Message(
            kind=MessageKind.STATE_TRANSFER,
            source=self.node_id,
            destination=peer,
            payload=("delta_response", fallback, slots),
            summary_entries=wire_entries,
        )
        size = response.size_bytes()
        full_size = HEADER_BYTES + full_entries * SUMMARY_COEFFICIENT_BYTES
        if any_delta:
            self.state_transfer_delta_bytes += size
            self.state_transfer_bytes_saved += full_size - size
        else:
            self.state_transfer_full_bytes += size
        if fallback:
            self.state_transfer_fallbacks += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "recovery.state_transfer",
                category="recovery",
                node=self.node_id,
                time=now,
                peer=peer,
                kind="delta" if any_delta else "full",
                size_bytes=size,
                saved_bytes=max(0, full_size - size),
                watermark=detail.get("watermark"),
            )
            if fallback:
                self.telemetry.emit(
                    "recovery.transfer_fallback",
                    category="recovery",
                    node=self.node_id,
                    time=now,
                    peer=peer,
                    watermark=detail.get("watermark"),
                )
        return response

    def _apply_transfer_slot(self, source: int, slot: tuple) -> None:
        """Absorb one slot of a delta-protocol resync response."""
        if slot[0] == "full":
            _, query_id, update = slot
            self._queries[query_id].policy.on_remote_summary(source, update)
            return
        (
            _,
            query_id,
            algorithm,
            stream_value,
            version,
            window_size,
            entries,
            blob,
        ) = slot
        # Deltas apply against the *restored* base we claimed, not the
        # live remote table: a retransmitted response then still applies
        # cleanly after an earlier copy already advanced the table.
        base = self._resync_bases.get(source, {}).get(
            (query_id, algorithm, stream_value)
        )
        update = SummaryUpdate(
            algorithm=algorithm,
            stream=StreamId(stream_value),
            version=int(version),
            window_size=window_size,
            entries=entries,
            payload=apply_delta(base, blob),
            full_state=True,
        )
        self._queries[query_id].policy.on_remote_summary(source, update)

    def _probe_shadow(
        self, runtime: QueryRuntime, item: StreamTuple, now: float
    ) -> List[JoinResult]:
        """Join a local arrival against forwarded copies of the other stream."""
        results = []
        for shadow in runtime.shadow_windows[item.stream.other].values():
            for match in shadow.matches(item.key):
                if item.stream is StreamId.R:
                    results.append(JoinResult(item, match, self.node_id, now))
                else:
                    results.append(JoinResult(match, item, self.node_id, now))
        return results

    def _log_op(
        self, runtime: QueryRuntime, now: float, kind: str, payload: tuple
    ) -> None:
        """Defer one oracle/collector operation to collect-time replay.

        The ground-truth oracle and result collector are the only pieces
        of *global* mutable state in the data plane; touching them from
        inside the event loop would make the accuracy numbers depend on
        the exact global interleaving of node events.  Logging the
        operations instead -- keyed ``(time, node, per-node seq)`` --
        and replaying them in that one canonical order makes accuracy
        accounting a function of the per-node histories alone.
        """
        self.accounting_ops.append(
            (now, self.node_id, self._acct_seq, runtime.query_id, kind, payload)
        )
        self._acct_seq += 1

    def _report_results(
        self, runtime: QueryRuntime, results: List[JoinResult], now: float
    ) -> float:
        """Record results; ship each cross-node result to its remote owner.

        "Matching tuples must still be transmitted over the network in
        order to provide the complete result" (Section 5.3) -- a result
        pair discovered here whose other member originated elsewhere costs
        one RESULT message to that origin.  Purely local pairs are
        consumed in place.

        Deduplication is strictly node-local: a real site cannot know
        what its peers already reported (or what the ground truth is), so
        it suppresses only pairs *it* shipped before and pays the wire
        cost for cross-site duplicates and spurious matches -- the query
        consumer deduplicates, as the paper's result-collection model
        assumes.  Accuracy classification happens at collect-time replay
        against the oracle, never here.
        """
        if results:
            self._log_op(runtime, now, "report", tuple(results))
        pause = 0.0
        for result in results:
            pair = result.pair_id
            if pair in runtime.seen_pairs:
                continue
            runtime.seen_pairs.add(pair)
            remote_origin = None
            if result.r_tuple.origin_node != self.node_id:
                remote_origin = result.r_tuple.origin_node
            elif result.s_tuple.origin_node != self.node_id:
                remote_origin = result.s_tuple.origin_node
            if remote_origin is None:
                continue
            message = Message(
                kind=MessageKind.RESULT,
                source=self.node_id,
                destination=remote_origin,
                payload=(runtime.query_id, None, []),
            )
            self.network.send(message)
            pause += self._pause_seconds(message)
        return pause

    def _take_pending_updates(self, destination: int) -> List[Tuple[int, object]]:
        """Drain every query's outbox for ``destination`` (shared channel)."""
        updates: List[Tuple[int, object]] = []
        for query_id in self._query_order:
            for update in self._queries[query_id].policy.outbox.take(destination):
                updates.append((query_id, update))
        return updates

    def _send_tuple(self, item: StreamTuple, destination: int, now: float) -> float:
        """Transmit a tuple with piggy-backed summary deltas; returns pause."""
        updates = self._take_pending_updates(destination)
        message = Message(
            kind=MessageKind.TUPLE,
            source=self.node_id,
            destination=destination,
            payload=(item.query_id, item, updates),
            summary_entries=sum(update.entries for _, update in updates),
        )
        self.network.send(message)
        self._last_contact[destination] = now
        return self._pause_seconds(message)

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
        threshold = self.config.summary_flush_multiple * self._mean_interarrival
        pause = 0.0
        starved = set()
        for runtime in self._queries.values():
            starved.update(runtime.policy.outbox.peers_with_pending())
        for peer in sorted(starved):
            last = self._last_contact.get(peer, 0.0)
            if now - last < threshold:
                continue
            updates = self._take_pending_updates(peer)
            if not updates:
                continue
            message = Message(
                kind=MessageKind.SUMMARY,
                source=self.node_id,
                destination=peer,
                payload=(0, None, updates),
                summary_entries=sum(update.entries for _, update in updates),
            )
            if self.transport is not None:
                # Standalone summaries are pure control traffic: a lost one
                # starves the peer until the next flush, so they ride the
                # reliable channel.  (Piggy-backed copies stay best-effort;
                # version guards already handle their loss.)
                self.transport.send(message)
            else:
                self.network.send(message)
            self._last_contact[peer] = now
            self.standalone_summaries_sent += 1
            pause += self._pause_seconds(message)
        return pause

    def _pause_seconds(self, message: Message) -> float:
        """Sender-side serialization pause (the 90 kbps emulation)."""
        return message.size_bytes() * 8.0 / self.config.sender_paced_bps

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
        now = self.scheduler.now
        if message.kind is MessageKind.STATE_TRANSFER:
            return self._process_state_transfer(message)
        query_id, item, updates = message.payload
        for update_query_id, update in updates:
            self._queries[update_query_id].policy.on_remote_summary(
                message.source, update
            )
        if updates and self.health is not None:
            self.health.summary_received(message.source, now)
        if item is None:
            return self.config.cpu_seconds_per_probe
        runtime = self._queries[item.query_id]
        self._refresh_time_windows(runtime, now)
        results = runtime.join.probe_remote(item, now)
        result_pause = self._report_results(runtime, results, now)
        self._shadow_window(runtime, item.stream, item.origin_node).append(item)
        self.remote_tuples_processed += 1
        return self.config.cpu_seconds_per_probe + result_pause

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
            "local_results": float(
                sum(r.join.local_results for r in self._queries.values())
            ),
            "probe_results": float(
                sum(r.join.probe_results for r in self._queries.values())
            ),
        }
        for runtime in self._queries.values():
            for key, value in runtime.policy.diagnostics().items():
                counters[key] = counters.get(key, 0.0) + value
        if self.fault_injector is not None:
            counters["local_arrivals_dropped"] = float(self.local_arrivals_dropped)
        if self.transport is not None:
            for key, value in self.transport.counters().items():
                counters["reliable_" + key] = value
        if self.health is not None:
            for key, value in self.health.counters().items():
                counters[key] = value
            counters["forced_broadcast_sends"] = float(self.forced_broadcast_sends)
            counters["suppressed_sends"] = float(self.suppressed_sends)
            counters["resyncs"] = float(self.resyncs)
        if self.degradation_ladder is not None:
            counters["shed_tuples"] = float(self.shed_tuples)
            counters["shed_messages"] = float(self.shed_messages)
            counters["suppressed_flushes"] = float(self.suppressed_flushes)
            ladder_counters = self.degradation_ladder.counters(self.scheduler.now)
            for key, value in ladder_counters.items():
                counters["overload_" + key] = value
        if self.recovery_machine is not None:
            counters["restarts"] = float(self.restarts)
            counters["checkpoints_taken"] = float(self.checkpoints_taken)
            counters["checkpoint_bytes"] = float(self.checkpoint_bytes)
            counters["tuples_logged"] = float(self.tuples_logged)
            counters["tuples_replayed"] = float(self.tuples_replayed)
            counters["replay_dropped"] = float(self.replay_dropped)
            counters["state_transfer_bytes"] = float(self.state_transfer_bytes)
            counters["state_transfer_delta_bytes"] = float(
                self.state_transfer_delta_bytes
            )
            counters["state_transfer_full_bytes"] = float(
                self.state_transfer_full_bytes
            )
            counters["state_transfer_bytes_saved"] = float(
                self.state_transfer_bytes_saved
            )
            counters["state_transfer_fallbacks"] = float(
                self.state_transfer_fallbacks
            )
            for key, value in self.recovery_machine.counters().items():
                counters["recovery_" + key] = value
        return counters

    def runtime_record(self) -> Dict[str, object]:
        """Everything the collection pass needs from this node, as data.

        ``DistributedJoinSystem._collect`` reads nodes only through
        these records.  Consuming the record drains the accounting log
        (replay happens exactly once per run).
        """
        record: Dict[str, object] = {
            "node_id": self.node_id,
            "diagnostics": self.diagnostics(),
            "accounting_ops": self.accounting_ops,
            "transport": (
                self.transport.counters() if self.transport is not None else None
            ),
            "health": (
                self.health.counters() if self.health is not None else None
            ),
            "rejoin_latencies": (
                list(self.recovery_machine.rejoin_latencies)
                if self.recovery_machine is not None
                else None
            ),
            "recovery_triggers": (
                [trigger for _, trigger, _ in self.recovery_machine.history]
                if self.recovery_machine is not None
                else None
            ),
        }
        self.accounting_ops = []
        return record
