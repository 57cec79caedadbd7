"""Structured events, spans, and the hub that collects them.

Instrumented components share one tiny contract, the :class:`Emitter`
protocol: ``emit(name, category=..., node=..., dur_s=..., **attrs)``.
Every call site guards with ``if self.telemetry is not None`` so a run
without telemetry pays a single attribute check per instrumented path.

The :class:`TelemetryHub` implements the protocol and is the run's
single sink: it timestamps events on the *simulated* clock, keeps them
in a bounded ring, mirrors high-level counts into the
:class:`~repro.telemetry.registry.MetricRegistry`, and owns the sampling
loop the system drives through pre-scheduled scheduler ticks.  Exports
(:mod:`repro.telemetry.exporters`) read only hub state, so everything a
run emits is reproducible from the seed: no wall-clock time, no process
ids, no global message counters ever enter an event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
)

from repro.telemetry.registry import Instrument, MetricRegistry
from repro.telemetry.settings import TelemetrySettings


@dataclass
class TelemetryEvent:
    """One structured occurrence on the simulated timeline.

    ``dur_s`` turns the event into a *span* (Chrome-trace complete
    event); ``None`` keeps it instant.  ``attrs`` must stay small and
    JSON-serializable -- exporters write them verbatim.
    """

    seq: int
    time: float
    name: str
    category: str
    node: Optional[int] = None
    dur_s: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)


class Emitter(Protocol):
    """What an instrumented component needs from telemetry."""

    def emit(
        self,
        name: str,
        category: str,
        node: Optional[int] = None,
        dur_s: Optional[float] = None,
        time: Optional[float] = None,
        **attrs: object,
    ) -> None:  # pragma: no cover - protocol
        ...


EVENT_CAPACITY = 65_536
"""Ring capacity of the structured event log (oldest dropped first)."""

Sampler = Callable[[float, MetricRegistry], None]
"""A sampling callback: reads live state into registry instruments."""


class Handles(dict):
    """Label value -> instrument, fetched from the registry at first use.

    The hub's fast path keeps the handles it fetched instead of paying
    the registry's get-or-create (a sort of stringified labels) per
    message.  An instrument is still created by its first use, never
    ahead of it: the instrument count and the creation order are part of
    what a run reports.
    """

    def __init__(self, fetch: Callable[[Any], Instrument]) -> None:
        super().__init__()
        self._fetch = fetch

    def __missing__(self, label: Any) -> Instrument:
        handle = self[label] = self._fetch(label)
        return handle


class TelemetryHub:
    """The run-wide sink: event ring + registry + sampling loop."""

    def __init__(
        self,
        settings: Optional[TelemetrySettings] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.settings = settings if settings is not None else TelemetrySettings()
        self.settings.validate()
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.registry = MetricRegistry()
        self._events: Deque[TelemetryEvent] = deque(maxlen=EVENT_CAPACITY)
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
        """Stream every future event to ``sink`` the moment it is emitted.

        Sinks see *all* events, including ones that later fall off the
        bounded ring -- this is how the incremental JSONL exporter
        (:class:`~repro.telemetry.exporters.JsonlStreamWriter`) escapes
        the ring capacity that bounds the buffered export.  Events already
        buffered are replayed to the sink first, so a sink attached right
        after system construction still opens with the construction-time
        events and its output stays byte-identical to the buffered export
        (exact as long as the ring has not yet overflowed at attach time).
        """
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

    def on_message_send(self, now: float, message) -> None:
        """Account one transmitted message; called by ``Network.send``."""
        kind = message.kind_name
        self._message_counters[kind].inc()
        self._byte_counters[kind].inc(message.wire_bytes)
        self._link_counters[message.source, message.destination].inc()
        if self.settings.trace_messages:
            self.emit(
                "net.send",
                category="net",
                node=message.source,
                time=now,
                dst=message.destination,
                kind=kind,
                bytes=message.wire_bytes,
                entries=message.summary_entries,
            )

    def on_message_deliver(self, now: float, message) -> None:
        """Account one delivered message; called at link arrival time."""
        kind = message.kind_name
        self._delivered_counters[kind].inc()
        if message.created_at is not None:
            self._transit_histograms[kind].observe(now - message.created_at)
        if self.settings.trace_messages:
            self.emit(
                "net.deliver",
                category="net",
                node=message.destination,
                time=now,
                src=message.source,
                kind=kind,
            )

    def on_message_drop(self, now: float, message) -> None:
        """Account one message lost in transit."""
        kind = message.kind_name
        self._lost_counters[kind].inc()
        if self.settings.trace_messages:
            self.emit(
                "net.drop",
                category="net",
                node=message.source,
                time=now,
                dst=message.destination,
                kind=kind,
            )

    # -- sampling ------------------------------------------------------

    def add_sampler(self, sampler: Sampler) -> None:
        """Register a callback run at every sampling tick."""
        self._samplers.append(sampler)

    def sample_tick(self, now: Optional[float] = None) -> None:
        """One sampling pass: read live state, then snapshot every series.

        Idempotent per simulated instant: sampling is a pure read, so a
        second tick at the same moment (e.g. the end-of-run tick landing
        on the last scheduled one) would only duplicate series points.
        """
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
