"""Point-to-point links with WAN characteristics.

The paper's testbed imposes 20-100 ms latency per message and pauses the
sender for one second for every 90 kilobits transmitted, i.e. a 90 kbps
serialization rate.  :class:`Link` models exactly that: messages serialize
one after another at ``bandwidth_bps`` (FIFO -- a link busy with a large
message delays everything behind it) and then propagate with a latency drawn
uniformly from ``[LATENCY_MIN_S, LATENCY_MAX_S]``.

Delivery therefore happens at::

    depart = max(now, link_free_at) + size_bits / bandwidth_bps
    arrive = depart + latency

Latency is sampled per message, so reordering across *different* links is
possible while each link itself preserves FIFO order end-to-end (matching
TCP streams between node pairs in the prototype).

Faults.  Beyond the static ``loss_probability`` of the spec, a link may be
wired to a :class:`~repro.net.faults.FaultInjector`, which can sever it
(outage/partition/crash), add drop probability (loss bursts) or add
propagation delay (latency spikes / gray failures).  Every dropped
message -- whatever killed it -- is counted in ``messages_lost`` and
``bytes_lost`` and reported to the optional ``on_drop`` observer, so the
loss is visible in traffic accounting instead of silently vanishing.
The sender always pays the serialization cost: losses happen in transit.

Destination.  A :class:`~repro.net.message.Message` names no
destination: the link is where a copy goes, so the link passes its own
endpoint to ``on_drop`` / ``on_deliver`` with the message.  One message
object may therefore travel several links at once (a broadcast), each
copy with its own wire bytes, jitter draw, event key, loss test and
tally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

from repro._rng import ensure_rng
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.net.simulator import EventKeySource, EventScheduler


LATENCY_MIN_S = 0.020
LATENCY_MAX_S = 0.100
"""The testbed's propagation range, the same on every link.  Read at each
send, so a check that needs another range patches these two names."""


@dataclass(frozen=True)
class LinkSpec:
    """Static link parameters (paper defaults)."""

    bandwidth_bps: float = 90_000.0
    loss_probability: float = 0.0
    """Per-message drop probability (fault injection).  The sender still
    pays the serialization cost -- the loss happens in transit."""

    def validate(self) -> None:
        if not self.bandwidth_bps > 0:
            # ``not >`` also rejects NaN, which would put every arrival
            # and the clock at NaN; ``math.inf`` stays legal.
            raise ConfigurationError("bandwidth must be positive")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError("loss_probability must lie in [0, 1)")


DRAW_BLOCK = 32
"""Doubles a link takes from its generator at a time: about 1 KB of
floats per link, 0.4 MB over the 380 links of the N = 20 mesh."""


class Link:
    """A unidirectional link between two endpoints."""

    def __init__(
        self,
        scheduler: EventScheduler,
        spec: LinkSpec,
        deliver: Callable[[Message], None],
        take: Callable[[list], None],
        key_source: EventKeySource,
        rng=None,
        endpoints: Optional[Tuple[int, int]] = None,
        fault_injector=None,
        on_drop: Optional[Callable[[Message, Optional[int]], None]] = None,
        on_deliver: Optional[Callable[[Message, Optional[int]], None]] = None,
    ) -> None:
        spec.validate()
        self._scheduler = scheduler
        self._spec = spec
        self._deliver = deliver
        self._take = take
        """The receiver's ingress (``ServiceProcess.take``)."""
        self._rng = ensure_rng(rng)
        self._doubles: Iterator[float] = iter(())
        self._endpoints = endpoints
        self.destination = None if endpoints is None else endpoints[1]
        """The receiving endpoint, passed with each copy to ``on_drop``
        and ``on_deliver`` (None on a link built without endpoints)."""
        self._injector = fault_injector
        self._on_drop = on_drop
        self._on_deliver = on_deliver
        self._free_at = 0.0
        self._last_arrival = 0.0
        self.messages_sent = 0
        self.messages_lost = 0
        self.bytes_sent = 0
        self.bytes_lost = 0
        self.messages_shed = 0
        self.backlog_bound_s = 0.0
        """Send-backlog cap in seconds of serialization delay; a message
        arriving while the backlog is at or past the cap is shed at the
        send buffer -- it never serializes (the sender pays nothing and
        ``_free_at`` does not advance).  0 (the default) is unbounded,
        the legacy semantics.  Set by the system from
        :class:`~repro.overload.OverloadSettings`."""
        self.key_source = key_source
        """The :class:`~repro.net.simulator.EventKeySource` minting this
        link's deterministic arrival-event keys (the Network gives each
        link the rank ``num_nodes + source * num_nodes + destination``)."""

    def queue_depth_seconds(self) -> float:
        """Seconds of serialization backlog currently ahead of a new message."""
        return max(0.0, self._free_at - self._scheduler.now)

    def _next_double(self) -> float:
        """The next double in ``[0, 1)`` of this link's generator.

        Jitter (drawn inline in :meth:`send`, the same way) and both loss
        tests draw here, in send order.  The doubles come ``DRAW_BLOCK``
        at a time: ``rng.random(k)`` is the k values that k scalar
        ``rng.random()`` calls return, and ``rng.uniform(lo, hi)`` is
        ``lo + (hi - lo) * rng.random()``, so every draw is bit for bit
        what one scalar call per draw gave (``tests/reference_link.py`` is
        that link).  Nothing else may read ``self._rng``.
        """
        for value in self._doubles:
            return value
        self._doubles = iter(self._rng.random(DRAW_BLOCK).tolist())
        return next(self._doubles)

    def _drop(self, message: Message) -> None:
        self.messages_lost += 1
        self.bytes_lost += message.wire_bytes
        if self._on_drop is not None:
            self._on_drop(message, self.destination)

    def send(self, message: Message) -> float:
        """Enqueue ``message``; returns its (nominal) delivery time.

        The sender is never blocked (the prototype's sockets buffer); the
        cost of congestion shows up as delivery delay, which is what the
        throughput experiments measure.
        """
        now = self._scheduler.now
        if (
            self.backlog_bound_s > 0.0
            and self._free_at - now >= self.backlog_bound_s
        ):
            # Shed before serialization *and* before any RNG draw, so a
            # bounded link's jitter/loss streams stay pure functions of
            # the messages that actually occupy it.
            self.messages_shed += 1
            message.created_at = now
            self._drop(message)
            return now
        spec = self._spec
        size = message.wire_bytes
        depart = max(now, self._free_at) + size * 8.0 / spec.bandwidth_bps
        self._free_at = depart
        latency = LATENCY_MIN_S
        if LATENCY_MAX_S != latency:
            double = next(self._doubles, None)
            if double is None:
                self._doubles = iter(self._rng.random(DRAW_BLOCK).tolist())
                double = next(self._doubles)
            latency += (LATENCY_MAX_S - latency) * double
        # The injector rewrites its per-link table at each fault edge; an
        # absent entry (or no injector) is the idle verdict, which adds 0.
        verdict = (
            self._injector.link_faults.get(self._endpoints)
            if self._injector is not None
            else None
        )
        if verdict is not None:
            latency += verdict[0]
        arrival = depart + latency
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        message.created_at = now
        self.messages_sent += 1
        self.bytes_sent += size
        if verdict is not None:
            _, blocked, burst = verdict
            if blocked:
                self._injector.note_blocked()
                self._drop(message)
                return arrival  # serialized, paid for, never delivered
            if burst > 0.0 and self._next_double() < burst:
                self._injector.note_blocked()
                self._drop(message)
                return arrival
        if spec.loss_probability > 0.0 and self._next_double() < spec.loss_probability:
            self._drop(message)
            return arrival
        keys = self.key_source
        seq = keys.seq
        keys.seq = seq + 1
        self._take([arrival, 1, keys.rank, seq, message, self._arrive])
        return arrival

    def _arrive(self, message: Message) -> None:
        """Delivery-time hand-off; a destination that crashed mid-flight
        swallows the message (its process is not there to receive it)."""
        if (
            self._injector is not None
            and self.destination is not None
            and self._injector.node_down(self.destination)
        ):
            self._injector.note_blocked()
            self._drop(message)
            return
        if self._on_deliver is not None:
            self._on_deliver(message, self.destination)
        self._deliver(message)
