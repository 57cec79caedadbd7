"""The pre-PR-23 telemetry fast path, kept as the tests' oracle.

Until PR 23 the hub's four recording entry points (``emit`` and the
per-message ``on_message_send / deliver / drop``) went through the
registry's get-or-create for every instrument they touched, and
``Histogram`` kept its exact sum as a ``Fraction``.  Since then the hub
keeps the handles it fetched and the histogram keeps one scaled integer.
The bodies below are the old ones moved here verbatim, so the hub under
``src/`` can be held to them with ``==``: same instruments, same creation
order, same values, same Prometheus bytes.
"""

from fractions import Fraction
from typing import Optional, Tuple

from repro.telemetry.events import TelemetryEvent, TelemetryHub
from repro.telemetry.registry import DEFAULT_BUCKETS, Histogram, MetricRegistry


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


class ReferenceTelemetryHub(TelemetryHub):
    """``repro.telemetry.events.TelemetryHub`` as of PR 22."""

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

    def on_message_send(self, now: float, message) -> None:
        kind = message.kind.value
        self.registry.counter("repro_net_messages_total", kind=kind).inc()
        self.registry.counter("repro_net_bytes_total", kind=kind).inc(
            message.wire_bytes
        )
        self.registry.counter(
            "repro_link_messages_total",
            src=message.source,
            dst=message.destination,
        ).inc()
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
                node=message.destination,
                time=now,
                src=message.source,
                kind=kind,
            )

    def on_message_drop(self, now: float, message) -> None:
        kind = message.kind.value
        self.registry.counter("repro_net_lost_total", kind=kind).inc()
        if self.settings.trace_messages:
            self.emit(
                "net.drop",
                category="net",
                node=message.source,
                time=now,
                dst=message.destination,
                kind=kind,
            )
