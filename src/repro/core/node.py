"""The distributed stream-processing node (Figure 7's runtime).

Each node owns, for the run's one join query R |><| S:

* its local segments R_i and S_i of the stream windows;
* *shadow windows* holding forwarded copies received from peers -- the
  materialization of the cross-partition joins R_i |><| S_j at this node;
* a forwarding policy (summaries + destination choice).

The service model mirrors the paper's WAN emulation: the testbed *pauses
the sender* one second per 90 kilobits, so transmission cost is charged to
the sending node's service time (links then add propagation latency only).
A node saturated by (N-1)-way broadcast therefore processes fewer tuples
per second -- which is exactly the effect Figure 11 measures.

Restartable crashes are this repo's extension, not the paper's: with
recovery enabled the node composes a
:class:`~repro.recovery.coordinator.RecoveryCoordinator` that owns the
replay log, checkpoints, rejoin timers and state transfer.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Sequence, Union

from repro import config as testbed
from repro.config import SystemConfig, WindowKind
from repro.core.health import PeerHealthMonitor
from repro.core.policies.base import ForwardingPolicy
from repro.core.summaries import SummaryUpdate
from repro.errors import SimulationError
from repro.join.hash_join import JoinResult, SymmetricHashJoin
from repro.net import link as wan
from repro.net.message import Message, MessageKind
from repro.net.reliable import ReliableTransport
from repro.net.simulator import Event, EventKeySource, EventScheduler
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

WorkItem = Union[StreamTuple, Message]
"""One entry of a node's service queue: the :class:`StreamTuple` of a
local arrival or the delivered :class:`Message` itself."""


def work_kind(work: WorkItem) -> str:
    """``"local"`` for a local arrival, ``"message"`` for a delivery: the
    kind that dispatch, shedding, the ``node.service`` event and the
    ``node.<kind>`` profiler sections name."""
    return "local" if type(work) is StreamTuple else "message"


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
        self._queue: Deque[WorkItem] = deque()
        self._busy = False
        self._inbox: List[list] = []
        """Inputs not yet in the service queue: a heap of ``[time, phase,
        rank, seq, work]`` entries, each under the key its arrival event
        would have had (see :meth:`take`)."""
        self._wake: Optional[Event] = None
        """The one event that serves an idle node's inbox head; ``None``
        while busy or with an empty inbox."""
        self.inputs_merged = 0
        """Inbox entries merged into the queue without an event of their
        own (see :meth:`_merge_inbox`), each an arrival event the event
        path would have executed."""
        self.runs_ahead = False
        """Whether this node serves its backlog inline, up to the links'
        minimum latency past the event that starts it (see :meth:`take`).
        The system copies :attr:`uses_inbox` into it when it hands the
        node its local arrivals; a node driven by hand does not run
        ahead."""
        self._ahead: Optional[list] = None
        """The key ``[time, 1, node id, seq]`` of the latest finish served
        inline; an input whose event does not sort after it raises."""
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
        """Optional recorder (see ``DistributedJoinSystem.profiler``);
        when set, every service runs in a ``node.<kind>`` section."""
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
                on_recovery=self.resync_peer,
            )
        self.recovery: Optional[RecoveryCoordinator] = None
        """Checkpoint/restart recovery (:mod:`repro.recovery`), built only
        when enabled; each entry point checks ``None`` first, so a run
        without recovery pays one attribute check there."""
        if recovery is not None and recovery.enabled:
            self.recovery = RecoveryCoordinator(self, checkpoint_store)
        self.join = SymmetricHashJoin(
            node_id, r_window=self._make_window(), s_window=self._make_window()
        )
        self.policy = policy
        self.shadow_windows: Dict[StreamId, Dict[int, SlidingWindow]] = {
            StreamId.R: {},
            StreamId.S: {},
        }
        self.seen_pairs: set = set()
        """Result pairs this node already shipped (node-local RESULT dedup)."""
        if self.recovery is not None:
            self.recovery.install_history(policy)
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
        self.uses_inbox = (
            transport is None
            and self.recovery is None
            and self.overload_settings is None
            and telemetry is None
            and fault_injector is None
        )
        """Whether every input of this node waits in its inbox (see
        :meth:`take`): true when an input's only effect here is the queue
        append -- no telemetry, faults, ARQ demux, liveness, restore
        parking or admission bound.  The Network hands deliveries into
        such a node to it, and the system lets it run ahead
        (:attr:`runs_ahead`); clearing it before the first send runs every
        input as an event."""

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------

    def schedule_local_arrival(self, time: float, item: StreamTuple) -> None:
        """Have ``item`` arrive here at ``time``: an inbox entry keyed by
        its ``arrival_index`` on a node that :attr:`uses_inbox`, a phase-0
        event on any other."""
        if self.uses_inbox:
            self.take([time, 0, 0, item.arrival_index, item])
        else:
            self.scheduler.schedule_at(time, partial(self.on_local_arrival, item))

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
        self._enqueue(item)

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
                    self._enqueue(released)
                return
        self._enqueue(message)

    def take(self, entry: list) -> None:
        """Put one input in the inbox: ``entry`` is ``[time, phase, rank,
        seq, work]``, the key its arrival event would have had and what
        it brings -- ``[arrival, 1, link rank, link seq, message]`` from a
        link, ``[time, 0, 0, arrival_index, item]`` from
        :meth:`schedule_local_arrival`.

        Why the inbox serves the event path's sequence at the event path's
        instants, on a run where an input's only effect is the queue
        append (:attr:`uses_inbox`):

        * A busy node.  A finish at key ``F``, scheduled or inline, merges
          every entry keyed before ``F``, in key order
          (:meth:`_merge_inbox`).  Each entry's own event would already
          have fired there and appended it, because the node was busy; so
          queue contents, ``observe_congestion`` inputs and
          ``max_queue_depth`` are the event path's.
        * An idle node.  Its inbox head is the earliest input it has, and
          its one wake fires at the head's time and key and does exactly
          what the head's event did: it calls :meth:`on_message` or
          :meth:`on_local_arrival`, which append (depth 1) and start.
          An input that becomes the head of an idle node cancels the
          pending wake and schedules its own; a busy node keeps no wake;
          a finish that leaves the queue empty and the inbox not schedules
          one.
        * Inputs that do not exist yet.  Such an input is sent at some
          simulated ``t >= now``, by an event that sorts after the current
          one or by a finish such an event serves inline, and spends at
          least ``L = min(LATENCY_MIN_S, LATENCY_MAX_S)`` in flight; float
          rounding is monotone, so it arrives at or after ``fl(now + L)``,
          after every finish :meth:`_start_next` serves inline.  Inputs
          that already exist are all in the inbox and are merged at each
          inline finish, so no input cuts the run-ahead horizon.  Nothing
          else reads or writes a node between its events on such a run:
          policy RNGs are per node, tuple ids are minted at scheduling
          time, traffic statistics count integers and accounting ops are
          keyed per node.  So link RNG draws, link keys and every byte
          sent are the event path's too.
        * Phase-0 wakes.  A wake for a local arrival is a phase-0 event
          with a fresh scheduler tie.  On such a run the only phase-0
          events are these wakes, and wakes of different nodes touch
          disjoint state, so their order at one instant is immaterial.
          Within one node the inbox orders same-instant arrivals by
          ``arrival_index``, which is the order they were scheduled in.

        An input that lands in a node's served-ahead past anyway (a
        hand-scheduled :meth:`on_local_arrival`) raises
        :class:`~repro.errors.SimulationError` in :meth:`_enqueue`; it is
        never reordered silently.
        """
        inbox = self._inbox
        heappush(inbox, entry)
        if inbox[0] is entry and not self._busy:
            if self._wake is not None:
                self._wake.cancel()
            self._schedule_wake()

    def _schedule_wake(self) -> None:
        time, phase, rank, seq, _ = self._inbox[0]
        self._wake = self.scheduler.schedule_at(
            time, self._wake_up, key=(rank, seq) if phase else None
        )

    def _wake_up(self) -> None:
        self._wake = None
        _, phase, _, _, work = heappop(self._inbox)
        if phase:
            self.on_message(work)
        else:
            self.on_local_arrival(work)

    def _merge_inbox(self) -> None:
        """Append the inbox entries keyed before the event being executed,
        in key order."""
        inbox = self._inbox
        queue = self._queue
        current = self.scheduler.current
        while inbox and inbox[0] < current:
            queue.append(heappop(inbox)[4])
            self.inputs_merged += 1
        self.max_queue_depth = max(self.max_queue_depth, len(queue))

    def _enqueue(self, work: WorkItem) -> None:
        ahead = self._ahead
        if ahead is not None and not self.scheduler.current > ahead:
            # Also an input from the very event that served ahead: it
            # belongs before the finishes that event served inline.
            raise SimulationError(
                "node %d received input at t=%r after serving ahead to t=%r"
                % (self.node_id, self.scheduler.now, ahead[0])
            )
        if self._busy:
            if self._inbox:
                self._merge_inbox()
        elif self._wake is not None:
            # A hand-driven input reached an idle node before its wake.
            self._wake.cancel()
            self._wake = None
        if (
            work_kind(work) == "message"
            and work.kind is MessageKind.STATE_TRANSFER
        ):
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
    def _work_priority(cls, work: WorkItem) -> int:
        if work_kind(work) != "message":
            return cls._SHED_PRIORITY_LOCAL
        if work.kind is MessageKind.STATE_TRANSFER:
            return cls._SHED_PRIORITY_TRANSFER
        if work.kind is MessageKind.TUPLE:
            return cls._SHED_PRIORITY_REMOTE_TUPLE
        return cls._SHED_PRIORITY_CONTROL

    def _admit_over_bound(self, work: WorkItem) -> None:
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

    def _shed(self, work: WorkItem) -> None:
        """Drop one unit of queued work, with honest accounting.

        Shed local tuples are logged as ``shed`` accounting ops: the
        ground-truth oracle still charges every result pair they would
        have completed against live windows, so shedding degrades the
        measured recall instead of quietly shrinking the denominator.
        Shed remote work is already counted at its origin and only
        decrements this node's side of the ledger.
        """
        kind = work_kind(work)
        now = self.scheduler.now
        if kind == "local":
            item = work.with_timestamp(now)
            self.shed_tuples += 1
            self._log_op(now, "shed", (item,))
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
            else THROTTLE_REFRESH_STRETCH
        )
        self.policy.set_refresh_stretch(stretch)
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
        """Serve the queue from here.  On a node that runs ahead, a finish
        before ``now + L`` (see :meth:`take`) is executed inline and starts
        the next service; the first one at or past it is scheduled as an
        event."""
        if self._busy or not self._queue:
            return
        self._busy = True
        scheduler = self.scheduler
        queue = self._queue
        horizon = (
            scheduler.now + min(wan.LATENCY_MIN_S, wan.LATENCY_MAX_S)
            if self.runs_ahead
            else -math.inf
        )
        while True:
            work = queue.popleft()
            kind = work_kind(work)
            if self.profiler is None:
                service_time = self._dispatch(kind, work)
            else:
                with self.profiler.section("node.%s" % kind):
                    service_time = self._dispatch(kind, work)
            if self.fault_injector is not None:
                # An active OVERLOAD fault stretches this node's service
                # times (CPU contention / a slow collocated tenant); factor
                # 1.0 -- no fault covering this node -- is a bit-exact no-op.
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
                    time=scheduler.now,
                    dur_s=service_time,
                    kind=kind,
                )
            finish = scheduler.now + service_time
            key = self._event_keys.next_key()
            if finish < horizon:
                # What _finish_service does, at the finish's own instant.
                self._ahead = scheduler.execute_inline(finish, key)
                if self._inbox:
                    self._merge_inbox()
                if queue:
                    continue
                self._busy = False
                if self._inbox:
                    self._schedule_wake()
                return
            scheduler.schedule_at(finish, self._finish_service, key=key)
            return

    def _dispatch(self, kind: str, work: WorkItem) -> float:
        if kind == "local":
            return self._process_local(work)
        return self._process_message(work)

    def _finish_service(self) -> None:
        self._busy = False
        if self._inbox:
            self._merge_inbox()
        if self._overload_detector is not None:
            # The drain side of the hysteresis loop: arrivals can only
            # escalate, so recovery has to be observed here, where the
            # queue actually shrinks.
            self._observe_overload(len(self._queue))
        if self._queue:
            self._start_next()
        elif self._inbox:
            self._schedule_wake()

    @property
    def queue_depth(self) -> int:
        """Queued work; an inbox entry counts from the finish that merges
        it (see :meth:`take`), not from its arrival time."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # window construction
    # ------------------------------------------------------------------

    def _make_window(self) -> SlidingWindow:
        """A local or shadow window of the configured kind and size.

        A time-window copy expires by its timestamp, as its original
        does.  A count shadow holds the last W copies *forwarded* from
        one origin, so a copy can outlive its original."""
        if self.config.window_kind is WindowKind.TIME:
            return TimeWindow(self.config.window_seconds)
        if self.config.window_kind is WindowKind.LANDMARK:
            # Shadow windows reset on landmark copies too: the origin's
            # window emptied at that moment, so its copies are stale.
            return LandmarkWindow(
                self.config.landmark_key, max_size=self.config.window_size
            )
        return CountWindow(self.config.window_size)

    def _shadow_window(self, stream: StreamId, origin: int) -> SlidingWindow:
        windows = self.shadow_windows[stream]
        if origin not in windows:
            windows[origin] = self._make_window()
        return windows[origin]

    def _refresh_time_windows(self, now: float) -> None:
        """Expire time-window tuples between arrivals (probe freshness).

        Count windows evict only on insert; time windows must not let a
        probe match a tuple whose span already lapsed, so both the local
        and the shadow windows are advanced to ``now`` first.  Local
        expirations propagate to the oracle and the deletable summaries.
        """
        if self.config.window_kind is not WindowKind.TIME:
            return
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
        self._refresh_time_windows(now)

        # Probe + insert against the local windows, probe the shadow copies.
        results, evicted = self.join.insert_local(item, now)
        results.extend(self._probe_shadow(item, now))
        self._log_op(now, "arrival", (item, tuple(evicted)))
        result_pause = self._report_results(results, now)

        # Summaries update before the forwarding decision (Figure 7 order).
        self.policy.on_local_insert(item, evicted)
        self.policy.observe_congestion(len(self._queue))
        destinations = self.policy.choose_destinations(item)
        destinations = self._apply_degradation(destinations, now)
        if self._fanout_histogram is not None:
            self._fanout_histogram.observe(float(len(destinations)))

        transmission_seconds = result_pause
        for destination in destinations:
            transmission_seconds += self._send_tuple(item, destination, now)
        transmission_seconds += self._flush_stale_summaries(now)

        self.tuples_processed += 1
        return testbed.CPU_SECONDS_PER_TUPLE + transmission_seconds

    def _apply_degradation(self, destinations: List[int], now: float) -> List[int]:
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
        for peer in self.policy.peer_ids:
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

    def resync_peer(self, peer: int) -> None:
        """Queue ``peer`` full-state summaries: it spoke again after
        suspicion, or restarted and asked for state."""
        self.resyncs += 1
        self.policy.resync_peer(peer)

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
        """The system's checkpoint tick, delegated to the coordinator."""
        if self.recovery is not None:
            self.recovery.take_checkpoint()

    def drop_service_state(self) -> None:
        """The process died: its queued work goes, and so do the peak
        depth and congestion throttle it measured -- a restarted node's
        reflect only what the new incarnation observes."""
        self._queue.clear()
        self.max_queue_depth = 0
        self.policy.reset_congestion()

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
        for shadow in self.shadow_windows[item.stream.other].values():
            for match in shadow.matches(item.key):
                if item.stream is StreamId.R:
                    results.append(JoinResult(item, match, self.node_id, now))
                else:
                    results.append(JoinResult(match, item, self.node_id, now))
        return results

    def _log_op(self, now: float, kind: str, payload: tuple) -> None:
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
            (now, self.node_id, self._acct_seq, kind, payload)
        )
        self._acct_seq += 1

    def _report_results(self, results: List[JoinResult], now: float) -> float:
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
                kind=MessageKind.RESULT,
                source=self.node_id,
                destination=remote_origin,
                payload=(None, ()),
            )
            self.network.send(message)
            pause += self._pause_seconds(message)
        return pause

    def _take_pending_updates(self, destination: int) -> Sequence[SummaryUpdate]:
        """Drain the policy's outbox for ``destination``.

        With nothing pending -- every BASE message, and most under a slow
        refresh cadence -- this is the shared empty tuple, so a queued
        message holds no list of its own."""
        outbox = self.policy.outbox
        if outbox.has_pending(destination):
            return outbox.take(destination)
        return ()

    def _send_tuple(self, item: StreamTuple, destination: int, now: float) -> float:
        """Transmit a tuple with piggy-backed summary deltas; returns pause."""
        updates = self._take_pending_updates(destination)
        message = Message(
            kind=MessageKind.TUPLE,
            source=self.node_id,
            destination=destination,
            payload=(item, updates),
            summary_entries=(
                sum(update.entries for update in updates) if updates else 0
            ),
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
                destination=peer,
                payload=(None, updates),
                summary_entries=sum(update.entries for update in updates),
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
        return message.size_bytes() * 8.0 / testbed.SENDER_PACED_BPS

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
        self._refresh_time_windows(now)
        results = self.join.probe_remote(item, now)
        result_pause = self._report_results(results, now)
        self._shadow_window(item.stream, item.origin_node).append(item)
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
        if self.recovery is not None:
            counters.update(self.recovery.counters())
        return counters
