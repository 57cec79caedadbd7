"""Structured events, spans, and the hub that collects them.

Instrumented components share one tiny contract, the :class:`Emitter`
protocol: ``emit(name, category=..., node=..., dur_s=..., **attrs)``.
Every call site guards with ``if self.telemetry is not None`` so a run
without telemetry pays a single attribute check per instrumented path.

The :class:`TelemetryHub` implements the protocol and is the run's
single sink: it timestamps events on the *simulated* clock, keeps them
in a bounded ring, mirrors high-level counts into the
:class:`~repro.telemetry.registry.MetricRegistry` (the network's send,
byte, loss and link counts are read from its own tallies at each tick,
not counted again per message), and owns the sampling loop the system
drives through pre-scheduled scheduler ticks.  Exports
(:mod:`repro.telemetry.exporters`) read only hub state, so everything a
run emits is reproducible from the seed: no wall-clock time, no process
ids, no global message counters ever enter an event.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
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
    ahead of it: the instrument count is part of what a run reports.
    """

    def __init__(self, fetch: Callable[[Any], Instrument]) -> None:
        super().__init__()
        self._fetch = fetch

    def __missing__(self, label: Any) -> Instrument:
        handle = self[label] = self._fetch(label)
        return handle


ROW_FIELDS = 6
"""Fields the ring keeps per event ahead of its attribute values: time,
name, category, node, dur_s and the tuple of attribute names."""


def _rows(fields: Iterable[object], count: int) -> Iterator[tuple]:
    """The first ``count`` events of the flat ring ``fields`` as
    ``(time, name, category, node, dur_s, keys, values)``."""
    fields = iter(fields)
    for _ in range(count):
        time, name, category, node, dur_s, keys = islice(fields, ROW_FIELDS)
        values = tuple(islice(fields, len(keys)))
        yield time, name, category, node, dur_s, keys, values


class TelemetryHub:
    """The run-wide sink: event ring + registry + sampling loop."""

    def __init__(
        self,
        settings: Optional[TelemetrySettings] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.settings = settings if settings is not None else TelemetrySettings()
        self.settings.validate()
        self.trace_messages = self.settings.trace_messages
        """Whether the network reports each send and loss (one ``net.*``
        event each); read once per message by ``Network.send``."""
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.registry = MetricRegistry()
        self._fields: Deque[object] = deque()
        self._retained = 0
        self._capacity = EVENT_CAPACITY
        self._attr_keys: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self.events_emitted = 0
        self._event_sinks: List[Callable[[TelemetryEvent], None]] = []
        self._samplers: List[Sampler] = []
        self._last_sample_time: Optional[float] = None
        self.network = None
        """The :class:`~repro.net.topology.Network` whose traffic tallies
        the message, byte, loss and link counters are read from at each
        tick (set by ``Network.attach_telemetry``); ``None`` leaves them
        unset."""
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
        """Record one structured event (see :class:`Emitter`).

        The ring is one flat deque: an event appends ``time, name,
        category, node, dur_s, keys`` and its attribute values, where
        ``keys`` is one tuple of attribute names shared by every event
        with the same names, so a retained event holds no container of
        its own for the garbage collector to track.  (A tuple kept per
        event, even one the collector soon stops tracking, still counts
        toward its collections: rows with one tuple of values ran about
        6 % slower on the ``chaos-bloom-n20`` workload, on 2 vCPU.)  Its
        sequence number is its position.  A :class:`TelemetryEvent` is
        built only for a reader (:meth:`events`, a sink).
        """
        if time is None:
            time = self._clock()
        keys = tuple(attrs)
        fields = self._fields
        if self._retained == self._capacity:
            # The ring is full: the oldest event leaves first.
            for _ in range(ROW_FIELDS + len(fields[ROW_FIELDS - 1])):
                fields.popleft()
        else:
            self._retained += 1
        fields.extend(
            (
                time,
                name,
                category,
                node,
                dur_s,
                self._attr_keys.setdefault(keys, keys),
                *attrs.values(),
            )
        )
        self.events_emitted += 1
        if self._event_sinks:
            event = TelemetryEvent(
                self.events_emitted - 1, time, name, category, node, dur_s, attrs
            )
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
        for event in self.events():
            sink(event)
        self._event_sinks.append(sink)

    def events(self) -> Iterator[TelemetryEvent]:
        """Retained events in emission order."""
        rows = _rows(self._fields, self._retained)
        return (
            TelemetryEvent(seq, *row[:5], dict(zip(row[5], row[6])))
            for seq, row in enumerate(rows, self.events_dropped)
        )

    @property
    def events_dropped(self) -> int:
        """Events that fell off the ring buffer."""
        return self.events_emitted - self._retained

    # -- message accounting --------------------------------------------
    #
    # Sends, bytes, losses and link sends are counted once, by the
    # network (``Network.stats`` and each ``Link``), and read into the
    # registry at each tick (:meth:`_read_traffic`); the network calls
    # ``on_message_send`` / ``on_message_drop`` only to trace.

    def on_message_send(self, now: float, message, destination: int) -> None:
        """Trace one transmitted copy; called by ``Network.send`` when
        :attr:`trace_messages` is set."""
        self.emit(
            "net.send",
            category="net",
            node=message.source,
            time=now,
            dst=destination,
            kind=message.kind_name,
            bytes=message.wire_bytes,
            entries=message.summary_entries,
        )

    def on_message_deliver(self, now: float, message, destination: int) -> None:
        """Account one delivered copy; called at link arrival time with
        the link's endpoint."""
        kind = message.kind_name
        self._delivered_counters[kind].inc()
        if message.created_at is not None:
            self._transit_histograms[kind].observe(now - message.created_at)
        if self.trace_messages:
            self.emit(
                "net.deliver",
                category="net",
                node=destination,
                time=now,
                src=message.source,
                kind=kind,
            )

    def on_message_drop(self, now: float, message, destination: int) -> None:
        """Trace one copy lost in transit; called by the network's loss
        path when :attr:`trace_messages` is set."""
        self.emit(
            "net.drop",
            category="net",
            node=message.source,
            time=now,
            dst=destination,
            kind=message.kind_name,
        )

    def _read_traffic(self) -> None:
        """Set the message, byte and loss counters per kind and the link
        counters from the network's tallies.

        An instrument is made at the first tick that finds its count
        non-zero: a kind appears in a tally at its first send (or loss),
        and a link sent from counts its sheds too.
        """
        stats = self.network.stats
        for counters, tally in (
            (self._message_counters, stats.messages_by_kind),
            (self._byte_counters, stats.bytes_by_kind),
            (self._lost_counters, stats.lost_by_kind),
        ):
            for kind, value in tally.items():
                counters[kind].value = float(value)
        links = self._link_counters
        for key, link in self.network.iter_links():
            sent = link.messages_sent + link.messages_shed
            if sent:
                links[key].value = float(sent)

    # -- sampling ------------------------------------------------------

    def add_sampler(self, sampler: Sampler) -> None:
        """Register a callback run at every sampling tick."""
        self._samplers.append(sampler)

    def sample_tick(self, now: Optional[float] = None) -> None:
        """One sampling pass: read live state, then snapshot every series.

        Idempotent per simulated instant: sampling is a pure read, so a
        second tick at the same moment (e.g. the end-of-run tick landing
        on the last scheduled one) would only duplicate series points.
        The traffic counters are read even then, so they always hold the
        network's tallies as of the latest tick.
        """
        if self.network is not None:
            self._read_traffic()
        moment = self._clock() if now is None else now
        if self._last_sample_time is not None and moment == self._last_sample_time:
            return
        self._last_sample_time = moment
        for sampler in self._samplers:
            sampler(moment, self.registry)
        self.registry.sample(moment)

    # -- reporting -----------------------------------------------------

    def counts_by_category(self) -> Dict[str, int]:
        """Retained events per category."""
        rows = _rows(self._fields, self._retained)
        return dict(Counter(row[2] for row in rows))

    def summary(self) -> Dict[str, float]:
        """Flat totals for :attr:`repro.core.results.RunResult.telemetry`."""
        summary: Dict[str, float] = {
            "events_emitted": float(self.events_emitted),
            "events_retained": float(self._retained),
            "events_dropped": float(self.events_dropped),
            "samples_taken": float(self.registry.samples_taken),
            "instruments": float(len(self.registry)),
        }
        for category, count in sorted(self.counts_by_category().items()):
            summary["events_%s" % category] = float(count)
        return summary
