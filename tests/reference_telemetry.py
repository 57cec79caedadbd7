"""Two earlier telemetry hubs, kept as the tests' oracles.

:class:`PerSendHub` is ``repro.telemetry.events.TelemetryHub`` as it was
until the network counters moved to the sampling tick: the hub counted
every send, byte, link send and loss with one call per message
(``on_message_send`` / ``on_message_drop``), kept each event as a
:class:`TelemetryEvent` in its ring, and its histograms found their
bucket with a loop (:class:`LoopHistogram`).  Since then ``Network.send``
and the loss path make no hub call without message tracing, the
``repro_net_*`` and ``repro_link_messages_total`` counters are set at each
tick from the network's tallies, the ring keeps its events' fields in
one flat deque, and a series keeps its points in two rings of floats.  The
bodies below are the old ones moved here verbatim (but for the copy's
destination, an argument of the three message calls since a message
stopped naming one), so the hub under
``src/`` can be held to them with ``==`` on everything a run exports
(``tests/property/test_telemetry_equivalence.py``).

:class:`ReferenceTelemetryHub` is the older get-or-create hub, before the hub
kept the instrument handles it fetched and before ``Histogram`` kept its
exact sum as one scaled integer: every instrument went through the
registry's get-or-create, and the sum was a ``Fraction``.  The same
property drives it alongside :class:`PerSendHub`.
"""

from collections import deque
from fractions import Fraction
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.telemetry import events as telemetry_events
from repro.telemetry.events import Handles, Sampler, TelemetryEvent
from repro.telemetry.registry import (
    _TOTAL_SCALE_BITS,
    DEFAULT_BUCKETS,
    Histogram,
    MetricRegistry,
)
from repro.telemetry.settings import TelemetrySettings


class LoopHistogram(Histogram):
    """``Histogram.observe`` with the bucket found by a loop over the edges."""

    def observe(self, value: float) -> None:
        # Convert before mutating: NaN and infinity raise here and leave
        # the histogram as it was.
        numerator, denominator = float(value).as_integer_ratio()
        self._scaled_total += numerator << (
            _TOTAL_SCALE_BITS + 1 - denominator.bit_length()
        )
        self.count += 1
        for index, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


class LoopRegistry(MetricRegistry):
    """A registry whose histograms are :class:`LoopHistogram`."""

    def histogram(
        self,
        name: str,
        edges: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> LoopHistogram:
        return self._get(LoopHistogram, name, labels, edges=edges)


class PerSendHub:
    """The run-wide sink: event ring + registry + sampling loop."""

    def __init__(
        self,
        settings: Optional[TelemetrySettings] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.settings = settings if settings is not None else TelemetrySettings()
        self.settings.validate()
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.registry = LoopRegistry()
        self._events: Deque[TelemetryEvent] = deque(
            maxlen=telemetry_events.EVENT_CAPACITY
        )
        self._sequence = 0
        self.events_emitted = 0
        self._event_sinks: List[Callable[[TelemetryEvent], None]] = []
        self._samplers: List[Sampler] = []
        self._last_sample_time: Optional[float] = None
        counter, histogram = self.registry.counter, self.registry.histogram
        self._event_counters = Handles(
            lambda category: counter("repro_events_total", category=category)
        )
        self._message_counters = Handles(
            lambda kind: counter("repro_net_messages_total", kind=kind)
        )
        self._byte_counters = Handles(
            lambda kind: counter("repro_net_bytes_total", kind=kind)
        )
        self._link_counters = Handles(
            lambda link: counter(
                "repro_link_messages_total", src=link[0], dst=link[1]
            )
        )
        self._delivered_counters = Handles(
            lambda kind: counter("repro_net_delivered_total", kind=kind)
        )
        self._transit_histograms = Handles(
            lambda kind: histogram("repro_net_transit_seconds", kind=kind)
        )
        self._lost_counters = Handles(
            lambda kind: counter("repro_net_lost_total", kind=kind)
        )

    # -- events --------------------------------------------------------

    def emit(
        self,
        name: str,
        category: str,
        node: Optional[int] = None,
        dur_s: Optional[float] = None,
        time: Optional[float] = None,
        **attrs: object,
    ) -> None:
        """Record one structured event (see :class:`Emitter`)."""
        event = TelemetryEvent(
            seq=self._sequence,
            time=self._clock() if time is None else time,
            name=name,
            category=category,
            node=node,
            dur_s=dur_s,
            attrs=attrs,
        )
        self._sequence += 1
        self.events_emitted += 1
        self._events.append(event)
        for sink in self._event_sinks:
            sink(event)
        self._event_counters[category].inc()

    def add_event_sink(self, sink: Callable[[TelemetryEvent], None]) -> None:
        for event in self._events:
            sink(event)
        self._event_sinks.append(sink)

    def events(self) -> Iterator[TelemetryEvent]:
        """Retained events in emission order."""
        return iter(self._events)

    @property
    def events_dropped(self) -> int:
        """Events that fell off the ring buffer."""
        return self.events_emitted - len(self._events)

    # -- message accounting (the network's fast path) ------------------

    def on_message_send(self, now: float, message, destination) -> None:
        """Account one transmitted message; called by ``Network.send``."""
        kind = message.kind_name
        self._message_counters[kind].inc()
        self._byte_counters[kind].inc(message.wire_bytes)
        self._link_counters[message.source, destination].inc()
        if self.settings.trace_messages:
            self.emit(
                "net.send",
                category="net",
                node=message.source,
                time=now,
                dst=destination,
                kind=kind,
                bytes=message.wire_bytes,
                entries=message.summary_entries,
            )

    def on_message_deliver(self, now: float, message, destination) -> None:
        """Account one delivered message; called at link arrival time."""
        kind = message.kind_name
        self._delivered_counters[kind].inc()
        if message.created_at is not None:
            self._transit_histograms[kind].observe(now - message.created_at)
        if self.settings.trace_messages:
            self.emit(
                "net.deliver",
                category="net",
                node=destination,
                time=now,
                src=message.source,
                kind=kind,
            )

    def on_message_drop(self, now: float, message, destination) -> None:
        """Account one message lost in transit."""
        kind = message.kind_name
        self._lost_counters[kind].inc()
        if self.settings.trace_messages:
            self.emit(
                "net.drop",
                category="net",
                node=message.source,
                time=now,
                dst=destination,
                kind=kind,
            )

    # -- sampling ------------------------------------------------------

    def add_sampler(self, sampler: Sampler) -> None:
        """Register a callback run at every sampling tick."""
        self._samplers.append(sampler)

    def sample_tick(self, now: Optional[float] = None) -> None:
        moment = self._clock() if now is None else now
        if self._last_sample_time is not None and moment == self._last_sample_time:
            return
        self._last_sample_time = moment
        for sampler in self._samplers:
            sampler(moment, self.registry)
        self.registry.sample(moment)

    # -- reporting -----------------------------------------------------

    def counts_by_category(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return counts

    def summary(self) -> Dict[str, float]:
        """Flat totals for :attr:`repro.core.results.RunResult.telemetry`."""
        summary: Dict[str, float] = {
            "events_emitted": float(self.events_emitted),
            "events_retained": float(len(self._events)),
            "events_dropped": float(self.events_dropped),
            "samples_taken": float(self.registry.samples_taken),
            "instruments": float(len(self.registry)),
        }
        for category, count in sorted(self.counts_by_category().items()):
            summary["events_%s" % category] = float(count)
        return summary


class ReferenceHistogram(Histogram):
    """``repro.telemetry.registry.Histogram`` as of PR 22: a ``Fraction``
    per observation (and ``count`` bumped before the conversion can raise)."""

    def __init__(self, name, labels, edges=DEFAULT_BUCKETS) -> None:
        super().__init__(name, labels, edges)
        self._total = Fraction(0)

    @property
    def total(self) -> float:
        return float(self._total)

    def observe(self, value: float) -> None:
        self.count += 1
        self._total += Fraction(value)
        for index, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


class ReferenceRegistry(MetricRegistry):
    """A registry whose histograms are :class:`ReferenceHistogram`."""

    def histogram(
        self,
        name: str,
        edges: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> ReferenceHistogram:
        return self._get(ReferenceHistogram, name, labels, edges=edges)


class ReferenceTelemetryHub(PerSendHub):
    """The telemetry hub before it kept its instrument handles."""

    def __init__(self, settings=None, clock=None) -> None:
        super().__init__(settings, clock)
        self.registry = ReferenceRegistry()

    def emit(
        self,
        name: str,
        category: str,
        node: Optional[int] = None,
        dur_s: Optional[float] = None,
        time: Optional[float] = None,
        **attrs: object,
    ) -> None:
        event = TelemetryEvent(
            seq=self._sequence,
            time=self._clock() if time is None else time,
            name=name,
            category=category,
            node=node,
            dur_s=dur_s,
            attrs=attrs,
        )
        self._sequence += 1
        self.events_emitted += 1
        self._events.append(event)
        for sink in self._event_sinks:
            sink(event)
        self.registry.counter("repro_events_total", category=category).inc()

    def on_message_send(self, now: float, message, destination) -> None:
        kind = message.kind.value
        self.registry.counter("repro_net_messages_total", kind=kind).inc()
        self.registry.counter("repro_net_bytes_total", kind=kind).inc(
            message.wire_bytes
        )
        self.registry.counter(
            "repro_link_messages_total",
            src=message.source,
            dst=destination,
        ).inc()
        if self.settings.trace_messages:
            self.emit(
                "net.send",
                category="net",
                node=message.source,
                time=now,
                dst=destination,
                kind=kind,
                bytes=message.wire_bytes,
                entries=message.summary_entries,
            )

    def on_message_deliver(self, now: float, message, destination) -> None:
        kind = message.kind.value
        self.registry.counter("repro_net_delivered_total", kind=kind).inc()
        if message.created_at is not None:
            self.registry.histogram(
                "repro_net_transit_seconds", kind=kind
            ).observe(now - message.created_at)
        if self.settings.trace_messages:
            self.emit(
                "net.deliver",
                category="net",
                node=destination,
                time=now,
                src=message.source,
                kind=kind,
            )

    def on_message_drop(self, now: float, message, destination) -> None:
        kind = message.kind.value
        self.registry.counter("repro_net_lost_total", kind=kind).inc()
        if self.settings.trace_messages:
            self.emit(
                "net.drop",
                category="net",
                node=message.source,
                time=now,
                dst=destination,
                kind=kind,
            )
