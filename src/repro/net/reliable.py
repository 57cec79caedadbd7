"""Reliable delivery for control traffic over lossy links.

The DFT/DFTT control loop (coefficient updates, flow control, Bloom and
sketch snapshots) silently rots when the WAN drops its messages: peers
keep filtering on stale summaries with no signal that anything is wrong.
:class:`ReliableTransport` adds a thin ARQ layer *for control messages
only* -- data tuples stay best-effort, exactly as in the paper, because a
lost tuple costs one result while a lost summary poisons every future
forwarding decision.

Per destination, a :class:`ReliableChannel` keeps classic sliding-ARQ
state:

* the sender stamps consecutive sequence numbers, keeps unacked messages
  in flight, and retransmits on timeout with exponential backoff plus a
  deterministic seeded jitter (no thundering retransmit herds, and
  bit-identical runs for a fixed seed);
* the receiver acks everything (including duplicates -- the original ack
  may be the casualty), suppresses duplicates, and releases messages in
  sequence order so summary deltas never apply out of order;
* after ``MAX_RETRIES`` unacked attempts the sender gives up and counts a
  delivery failure -- the failure detector, not the transport, owns
  suspecting the peer.

ACK messages are header-only (24 bytes) and themselves best-effort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro._rng import ensure_rng
from repro.errors import ConfigurationError, SimulationError
from repro.net.message import Message, MessageKind
from repro.net.simulator import Event, EventScheduler

BACKOFF_FACTOR = 2.0
"""Timeout multiplier per consecutive retransmission."""

JITTER_FRACTION = 0.1
"""Uniform multiplicative jitter in [1, 1 + fraction] on each timeout,
drawn from a seeded generator (deterministic per run)."""

MAX_RETRIES = 5
"""Retransmissions before the sender declares a delivery failure."""


@dataclass(frozen=True)
class ReliabilitySettings:
    """Knobs for the control-plane ARQ and the failure detector.

    The ARQ's backoff, jitter and retry bound are the constants above;
    the failure detector's heartbeat interval and suspect timeout are
    constants of :mod:`repro.core.health`.
    """

    enabled: bool = False
    """Master switch.  Off (the default) leaves the wire protocol exactly
    as the paper has it -- no acks, no heartbeats, no degradation."""

    retransmit_timeout_s: float = 0.25
    """Initial ack deadline; roughly 2x the worst-case RTT of the paper's
    20-100 ms links."""

    staleness_budget_s: float = 5.0
    """Maximum tolerated age of a peer's summary before forwarding
    decisions stop trusting it (0 disables staleness degradation)."""

    degradation_mode: str = "broadcast"
    """What to do with tuples for stale/suspected peers: "broadcast"
    (BASE-style: send anyway, trading messages for recall) or "suppress"
    (drop the flow toward them, trading recall for messages)."""

    def validate(self) -> None:
        if self.retransmit_timeout_s <= 0:
            raise ConfigurationError("retransmit_timeout_s must be positive")
        if self.staleness_budget_s < 0:
            raise ConfigurationError("staleness_budget_s must be non-negative")
        if self.degradation_mode not in ("broadcast", "suppress"):
            raise ConfigurationError(
                "degradation_mode must be 'broadcast' or 'suppress', got %r"
                % (self.degradation_mode,)
            )


@dataclass
class _InFlight:
    """Sender-side state of one unacked message."""

    message: Message
    timer: Event
    attempts: int
    timeout_s: float


class ReliableChannel:
    """ARQ state toward one peer (sender) / from one peer (receiver)."""

    def __init__(self, peer: int) -> None:
        self.peer = peer
        """The other end: where this channel's sends and retransmits go."""
        self.next_seq = 0
        self.in_flight: Dict[int, _InFlight] = {}
        self.next_expected = 0
        self.reorder_buffer: Dict[int, Message] = {}


class ReliableTransport:
    """One node's reliable-control-channel endpoint.

    ``send_fn(message, destination)`` is the raw network transmit
    (``Network.send`` in the real system; anything of that shape in
    tests).  The transport never blocks:
    all waiting happens through scheduler timers.
    """

    def __init__(
        self,
        node_id: int,
        scheduler: EventScheduler,
        send_fn: Callable[[Message, int], object],
        settings: ReliabilitySettings,
        rng=None,
    ) -> None:
        settings.validate()
        self.node_id = node_id
        self.scheduler = scheduler
        self.send_fn = send_fn
        self.settings = settings
        self.rng = ensure_rng(rng)
        self._channels: Dict[int, ReliableChannel] = {}
        self.retransmits = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.duplicates_suppressed = 0
        self.delivery_failures = 0
        self.out_of_order_buffered = 0
        self.channel_resets = 0
        self.telemetry = None
        """Optional :class:`repro.telemetry.TelemetryHub`; exhausted-retry
        dead letters are emitted as events when set."""
        self.telemetry_node = None
        self.key_source = None
        """Optional :class:`~repro.net.simulator.EventKeySource`; the
        owning node shares its source so retransmit timers get
        deterministic entity-local event keys (see
        :mod:`repro.net.simulator`)."""

    def _channel(self, peer: int) -> ReliableChannel:
        if peer not in self._channels:
            self._channels[peer] = ReliableChannel(peer)
        return self._channels[peer]

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------

    def send(self, message: Message, destination: int) -> None:
        """Transmit ``message`` reliably to ``destination`` (stamps the
        channel sequence number).  A message already sequenced is refused:
        one object carries one ``seq``, so it may be sent reliably once
        (retransmits go through :meth:`_transmit`)."""
        if message.seq is not None:
            raise SimulationError(
                "message already sequenced (seq=%d); a reliable send "
                "needs a fresh message" % message.seq
            )
        channel = self._channel(destination)
        message.seq = channel.next_seq
        channel.next_seq += 1
        self._transmit(channel, message, attempts=0,
                       timeout_s=self.settings.retransmit_timeout_s)

    def _transmit(
        self, channel: ReliableChannel, message: Message, attempts: int, timeout_s: float
    ) -> None:
        deadline = timeout_s * (1.0 + JITTER_FRACTION * float(self.rng.random()))
        timer = self.scheduler.schedule_in(
            deadline,
            lambda p=channel.peer, m=message: self._on_timeout(p, m),
            key=(
                self.key_source.next_key() if self.key_source is not None else None
            ),
        )
        # Register the in-flight state *before* handing the message to the
        # wire: a zero-latency send_fn can deliver and ack synchronously.
        channel.in_flight[message.seq] = _InFlight(
            message=message, timer=timer, attempts=attempts, timeout_s=timeout_s
        )
        self.send_fn(message, channel.peer)

    def _on_timeout(self, peer: int, message: Message) -> None:
        channel = self._channel(peer)
        state = channel.in_flight.pop(message.seq, None)
        if state is None:  # acked between scheduling and firing
            return
        if state.attempts >= MAX_RETRIES:
            self.delivery_failures += 1
            if self.telemetry is not None:
                # Dead-letter visibility: the message is gone for good; say
                # who it was for and what it carried so operators can tell a
                # lost Bloom snapshot from a lost DFT delta.
                self.telemetry.emit(
                    "transport.dead_letter",
                    category="transport",
                    node=self.telemetry_node,
                    peer=peer,
                    kind=message.kind.value,
                    attempts=state.attempts + 1,
                )
            return
        self.retransmits += 1
        self._transmit(
            channel,
            message,
            attempts=state.attempts + 1,
            timeout_s=state.timeout_s * BACKOFF_FACTOR,
        )

    def on_ack(self, ack: Message) -> None:
        """An ACK arrived; stop retransmitting the covered message."""
        self.acks_received += 1
        channel = self._channel(ack.source)
        state = channel.in_flight.pop(ack.seq, None)
        if state is not None:
            state.timer.cancel()

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------

    def on_receive(self, message: Message) -> List[Message]:
        """Process a sequenced control message from the wire.

        Returns the messages releasable *in order* (possibly none, if the
        arrival left a sequence gap; possibly several, if it filled one).
        Always acks -- a duplicate usually means the previous ack died.
        """
        if message.seq is None:
            raise ConfigurationError("on_receive expects a sequenced message")
        self._send_ack(message)
        channel = self._channel(message.source)
        if message.seq < channel.next_expected or message.seq in channel.reorder_buffer:
            self.duplicates_suppressed += 1
            return []
        if message.seq > channel.next_expected:
            self.out_of_order_buffered += 1
            channel.reorder_buffer[message.seq] = message
            return []
        released = [message]
        channel.next_expected += 1
        while channel.next_expected in channel.reorder_buffer:
            released.append(channel.reorder_buffer.pop(channel.next_expected))
            channel.next_expected += 1
        return released

    def _send_ack(self, message: Message) -> None:
        ack = Message(kind=MessageKind.ACK, source=self.node_id, seq=message.seq)
        self.acks_sent += 1
        self.send_fn(ack, message.source)

    # ------------------------------------------------------------------
    # channel resets (crash recovery)
    # ------------------------------------------------------------------

    def reset_peer(self, peer: int) -> None:
        """Forget all ARQ state toward/from ``peer``.

        A restarted peer comes back with sequence numbers at zero; keeping
        our old channel would suppress everything it sends as duplicates
        and park everything we send in its reorder buffer forever.  Both
        sides of the recovery handshake (see repro.recovery) reset, so the
        conversation restarts from seq 0 in both directions.
        """
        channel = self._channels.pop(peer, None)
        if channel is None:
            return
        for state in channel.in_flight.values():
            state.timer.cancel()
        self.channel_resets += 1

    def reset(self) -> None:
        """Forget all ARQ state toward/from every peer (restart path)."""
        for peer in list(self._channels):
            self.reset_peer(peer)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        return {
            "retransmits": float(self.retransmits),
            "acks_sent": float(self.acks_sent),
            "acks_received": float(self.acks_received),
            "duplicates_suppressed": float(self.duplicates_suppressed),
            "delivery_failures": float(self.delivery_failures),
            "out_of_order_buffered": float(self.out_of_order_buffered),
            "channel_resets": float(self.channel_resets),
        }
