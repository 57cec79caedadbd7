"""Policy interface, the summary-policy layer and the BASE comparator.

A policy lives inside one node.  The node runtime calls, in order, for
each locally-arriving tuple:

1. :meth:`ForwardingPolicy.on_local_insert` -- the tuple entered the local
   window (with the eviction it caused); summaries update here.
2. :meth:`ForwardingPolicy.choose_destinations` -- which peers get a copy.

Incoming summary updates (piggy-backed or standalone) are delivered via
:meth:`ForwardingPolicy.on_remote_summary`.  Pending outgoing summaries
live in the policy's :class:`~repro.core.summaries.SummaryOutbox`; the
node drains it when transmitting.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro._rng import ensure_rng
from repro.config import PolicyConfig
from repro.core.flow import FlowController
from repro.core.summaries import (
    RemoteSummaryTable,
    SnapshotSummaryManager,
    SummaryOutbox,
    SummaryUpdate,
)
from repro.errors import ConfigurationError
from repro.streams.tuples import StreamId, StreamTuple

EXPLORE_PROBABILITY = 0.05
"""DFTT/BLOOM: chance of probing one extra peer beyond the evidence."""

STREAMS = (StreamId.R, StreamId.S)


@dataclass
class PolicyContext:
    """Everything a policy may know about its place in the system."""

    node_id: int
    peer_ids: Tuple[int, ...]
    window_size: int
    domain: int
    config: PolicyConfig
    rng: np.random.Generator = field(default_factory=lambda: ensure_rng(0))

    def __post_init__(self) -> None:
        if self.node_id in self.peer_ids:
            raise ConfigurationError("a node is not its own peer")
        if len(set(self.peer_ids)) != len(self.peer_ids):
            raise ConfigurationError("duplicate peer ids")
        self.config.validate()

    @property
    def num_nodes(self) -> int:
        return len(self.peer_ids) + 1


class ForwardingPolicy(abc.ABC):
    """Per-node forwarding strategy."""

    name: str = "abstract"

    def __init__(self, context: PolicyContext) -> None:
        self.context = context
        self.outbox = SummaryOutbox(context.peer_ids)
        self.tuples_seen = 0
        self.fallback_decisions = 0
        self.congestion_scale = 1.0
        self.telemetry = None
        """Optional :class:`repro.telemetry.TelemetryHub` (see
        :meth:`attach_telemetry`)."""

    def attach_telemetry(self, hub) -> None:
        """Wire a telemetry hub into the policy (summary policies pass it
        on to their managers and flow controller)."""
        self.telemetry = hub

    @property
    def node_id(self) -> int:
        return self.context.node_id

    @property
    def peer_ids(self) -> Tuple[int, ...]:
        return self.context.peer_ids

    def on_local_insert(
        self, item: StreamTuple, evicted: Sequence[StreamTuple]
    ) -> None:
        """A tuple entered the local window (default: nothing to maintain)."""
        self.tuples_seen += 1

    def observe_congestion(self, queue_depth: int) -> None:
        """The node reports its service-queue depth before each decision.

        With adaptive flow settings this throttles the budget toward the
        O(1) floor under backlog ("automatic throughput handling based on
        resource availability").  BASE ignores the scale; round-robin
        applies it directly.
        """
        self.congestion_scale = self.context.config.flow.congestion_scale(queue_depth)

    def reset_congestion(self) -> None:
        """Forget every queue-depth observation (crash soft-state wipe).

        A restarting process boots with an empty service queue; carrying
        the pre-crash congestion scale forward would throttle its first
        post-restore decisions against a backlog that no longer exists.
        """
        self.congestion_scale = 1.0

    def set_refresh_stretch(self, stretch: int) -> None:
        """Stretch (or restore) the summary refresh cadence.

        Called by the overload ladder on mode transitions: while a node
        is THROTTLED or SHEDDING its summaries recompute and broadcast
        ``stretch`` times less often.  The managers read the stretch from
        the outbox they feed (BASE and round-robin feed it none).
        """
        self.outbox.refresh_stretch = stretch

    def on_evictions(self, stream: StreamId, evicted: Sequence[StreamTuple]) -> None:
        """Tuples expired between arrivals (time windows only).

        Count-window evictions arrive through :meth:`on_local_insert`;
        policies whose summaries support deletion (Bloom, sketches)
        override this to stay consistent.  The DFT summaries cover the
        most recent ``window_size`` tuples by construction and need no
        action here.
        """

    @abc.abstractmethod
    def choose_destinations(self, item: StreamTuple) -> List[int]:
        """Peers that should receive a copy of ``item``."""

    def on_remote_summary(self, source: int, update: SummaryUpdate) -> None:
        """A peer's summary update arrived (default: ignored)."""

    def resync_peer(self, peer: int) -> None:
        """Queue a full-state summary for a peer recovering from a fault.

        BASE and round-robin keep no remote state, so recovery needs
        nothing.
        """

    def remote_text(self) -> str:
        """The remote summaries a checkpoint keeps, as canonical JSON
        text (BASE and RR: none)."""
        return "[]"

    def replay_remote(self, entries: Sequence[tuple]) -> List[Tuple[int, SummaryUpdate]]:
        """Apply restored remote summaries, returned (BASE and RR: none)."""
        return []

    def diagnostics(self) -> Dict[str, float]:
        """Policy-specific counters for result reporting."""
        return {
            "tuples_seen": float(self.tuples_seen),
            "fallback_decisions": float(self.fallback_decisions),
        }

    def checkpoint_state(self) -> Dict[str, object]:
        """JSON-safe snapshot of the policy's durable state.

        Subclasses extend the returned dictionary with their summaries
        and learned state.  Soft state (remote summary tables, caches,
        pending outbox updates) is deliberately excluded: it is rebuilt
        by the recovery resync and the normal broadcast cadence, so
        ``restore_state`` drops it.  The invariant the property tests pin
        is ``checkpoint(restore(checkpoint(p))) == checkpoint(p)``.
        """
        return {
            "name": self.name,
            "tuples_seen": self.tuples_seen,
            "fallback_decisions": self.fallback_decisions,
            "congestion_scale": self.congestion_scale,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`checkpoint_state`; clears soft state."""
        if state.get("name") != self.name:
            raise ConfigurationError(
                "checkpoint is for policy %r, not %r" % (state.get("name"), self.name)
            )
        self.tuples_seen = int(state["tuples_seen"])
        self.fallback_decisions = int(state["fallback_decisions"])
        self.congestion_scale = float(state["congestion_scale"])
        self.outbox.clear()

    def _bernoulli_destinations(
        self, probabilities: Dict[int, float]
    ) -> List[int]:
        """Independent coin per peer -- the paper's probabilistic transmit.

        A peer with p > 0 gets one coin; the k coins are one
        ``rng.random(k)`` draw, the same doubles as k scalar draws.
        """
        live = [item for item in probabilities.items() if item[1] > 0]
        if not live:
            return []
        coins = self.context.rng.random(len(live)).tolist()
        return [
            peer
            for (peer, probability), coin in zip(live, coins)
            if coin < probability
        ]


class SummaryPolicy(ForwardingPolicy):
    """DFT and DFTT (Section 5), BLOOM and SKCH (Section 6): one protocol.

    Per stream a manager summarizes the local window for every peer at the
    refresh cadence (``managers``), ``remote`` keeps each peer's latest
    summary, and ``flow`` holds the budget T_i in [1, log N] (Equation 9)
    with its congestion scale.  A subclass builds the managers
    (:meth:`_make_manager`) and decides.
    """

    def __init__(self, context: PolicyContext) -> None:
        # Before the base constructor: it sets the congestion scale, which
        # lives on the controller.
        self.flow = FlowController(context.num_nodes, context.config.flow)
        super().__init__(context)
        self.managers = {stream: self._make_manager(stream) for stream in STREAMS}
        self.remote = RemoteSummaryTable()
        # Decision caches that embed the budget: cleared when the
        # congestion scale moves by more than 0.1.
        self._budget_caches: Tuple[dict, ...] = ()

    @abc.abstractmethod
    def _make_manager(self, stream: StreamId):
        """The summary manager of ``stream`` (called once per stream)."""

    def _snapshot_manager(
        self, stream: StreamId, algorithm: str, entries: int, snapshot: Callable
    ) -> SnapshotSummaryManager:
        """A manager that sends ``snapshot()`` whole (BLOOM, SKCH)."""
        return SnapshotSummaryManager(
            algorithm=algorithm,
            stream=stream,
            window_size=self.context.window_size,
            entries=entries,
            refresh_interval=self.context.config.summary_refresh_interval,
            outbox=self.outbox,
            snapshot_fn=snapshot,
        )

    @property
    def congestion_scale(self) -> float:
        return self.flow.congestion_scale

    @congestion_scale.setter
    def congestion_scale(self, scale: float) -> None:
        self.flow.congestion_scale = scale

    def attach_telemetry(self, hub) -> None:
        """The managers and the flow controller get the hub and the node
        id, so their emissions carry the right node label."""
        super().attach_telemetry(hub)
        node = self.context.node_id
        for component in (*self.managers.values(), self.flow):
            component.telemetry = hub
            component.telemetry_node = node

    def observe_congestion(self, queue_depth: int) -> None:
        flow = self.flow
        previous = flow.congestion_scale
        flow.observe_queue_depth(queue_depth)
        if abs(flow.congestion_scale - previous) > 0.1:
            for cache in self._budget_caches:
                cache.clear()

    def resync_peer(self, peer: int) -> None:
        """Queue full-state summaries for a recovering peer: it missed an
        unknown number of broadcasts, and DFT deltas merged over a stale
        map would leave phantom coefficients (an empty window sends none)."""
        for stream in STREAMS:
            update = self.managers[stream].snapshot_update()
            if update is not None:
                self.outbox.queue_for(peer, update)

    def remote_text(self) -> str:
        """The freshest remote summaries, as canonical JSON text."""
        return self.remote.checkpoint_text()

    def replay_remote(self, entries: Sequence[tuple]) -> List[Tuple[int, SummaryUpdate]]:
        """Apply restored ``(peer, stream, version, payload)`` entries as
        full-state updates through :meth:`on_remote_summary`, so derived
        caches rebuild as a live broadcast would rebuild them."""
        replayed = []
        for peer, stream, version, payload in entries:
            update = self.managers[stream].full_update(version, payload)
            self.on_remote_summary(peer, update)
            replayed.append((peer, update))
        return replayed

    def checkpoint_state(self) -> Dict[str, object]:
        state = super().checkpoint_state()
        state["managers"] = {
            stream.value: self.managers[stream].checkpoint_state()
            for stream in STREAMS
        }
        state["flow"] = self.flow.checkpoint_state()
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        super().restore_state(state)
        for stream in STREAMS:
            self.managers[stream].restore_state(state["managers"][stream.value])
        self.flow.restore_state(state["flow"])
        self.remote.clear()


class BroadcastPolicy(ForwardingPolicy):
    """BASE: every tuple to every peer -- exact results, (N-1) messages."""

    name = "BASE"

    def choose_destinations(self, item: StreamTuple) -> List[int]:
        return list(self.peer_ids)
