"""The pre-PR-20 link, with one scalar RNG call per draw, kept as the tests' oracle.

Until PR 20 ``Link.send`` drew each message's jitter with one
``rng.uniform(lo, hi)`` and each loss test with one ``rng.random()``;
since then the link takes its generator's doubles a block at a time and
does the affine map itself.  The class below is the old ``Link`` moved
here verbatim (``LinkSpec.sample_latency`` became the function beside
it), so the block-drawing link under ``src/`` can be held to it arrival
for arrival and drop for drop with ``==``.  Since the latency range and
FIFO delivery stopped being ``LinkSpec`` fields, both links read the
range from the module constants of :mod:`repro.net.link` and always
keep FIFO order.
"""

from typing import Callable, Optional, Tuple

import numpy as np

from repro._rng import ensure_rng
from repro.net import link
from repro.net.link import LinkSpec
from repro.net.message import Message
from repro.net.simulator import EventKeySource, EventScheduler


def reference_sample_latency(rng: np.random.Generator) -> float:
    """``LinkSpec.sample_latency`` as of PR 19."""
    if link.LATENCY_MAX_S == link.LATENCY_MIN_S:
        return link.LATENCY_MIN_S
    return float(rng.uniform(link.LATENCY_MIN_S, link.LATENCY_MAX_S))


class ReferenceLink:
    """``repro.net.link.Link`` as of PR 19."""

    def __init__(
        self,
        scheduler: EventScheduler,
        spec: LinkSpec,
        deliver: Callable[[Message], None],
        key_source: Optional[EventKeySource] = None,
        rng=None,
        endpoints: Optional[Tuple[int, int]] = None,
        fault_injector=None,
        on_drop: Optional[Callable[[Message], None]] = None,
        on_deliver: Optional[Callable[[Message], None]] = None,
    ) -> None:
        spec.validate()
        self._scheduler = scheduler
        self._spec = spec
        self._deliver = deliver
        self._rng = ensure_rng(rng)
        self._endpoints = endpoints
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
        """Optional :class:`~repro.net.simulator.EventKeySource` minting
        deterministic arrival-event keys (the Network assigns one per
        link; bare test links fall back to insertion-order keys)."""

    @property
    def spec(self) -> LinkSpec:
        return self._spec

    @property
    def free_at(self) -> float:
        """Simulated time at which the link finishes its current backlog."""
        return self._free_at

    def queue_depth_seconds(self) -> float:
        """Seconds of serialization backlog currently ahead of a new message."""
        return max(0.0, self._free_at - self._scheduler.now)

    def transmission_time(self, message: Message) -> float:
        """Serialization delay for ``message`` at the link bandwidth."""
        return message.wire_bytes * 8.0 / self._spec.bandwidth_bps

    def _drop(self, message: Message) -> None:
        self.messages_lost += 1
        self.bytes_lost += message.wire_bytes
        if self._on_drop is not None:
            self._on_drop(message)

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
        depart = max(now, self._free_at) + self.transmission_time(message)
        self._free_at = depart
        latency = reference_sample_latency(self._rng)
        if self._injector is not None and self._endpoints is not None:
            latency += self._injector.extra_latency(*self._endpoints)
        arrival = depart + latency
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        message.created_at = now
        self.messages_sent += 1
        self.bytes_sent += message.wire_bytes
        if self._injector is not None and self._endpoints is not None:
            if self._injector.link_blocked(*self._endpoints):
                self._injector.note_blocked()
                self._drop(message)
                return arrival  # serialized, paid for, never delivered
            burst = self._injector.extra_loss(*self._endpoints)
            if burst > 0.0 and self._rng.random() < burst:
                self._injector.note_blocked()
                self._drop(message)
                return arrival
        if (
            self._spec.loss_probability > 0.0
            and self._rng.random() < self._spec.loss_probability
        ):
            self._drop(message)
            return arrival
        key = self.key_source.next_key() if self.key_source is not None else None
        self._scheduler.schedule_at(
            arrival, lambda m=message: self._arrive(m), key=key
        )
        return arrival

    def _arrive(self, message: Message) -> None:
        """Delivery-time hand-off; a destination that crashed mid-flight
        swallows the message (its process is not there to receive it)."""
        if (
            self._injector is not None
            and self._endpoints is not None
            and self._injector.node_down(self._endpoints[1])
        ):
            self._injector.note_blocked()
            self._drop(message)
            return
        if self._on_deliver is not None:
            self._on_deliver(message)
        self._deliver(message)
