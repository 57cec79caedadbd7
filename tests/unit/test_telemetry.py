"""Unit tests for the telemetry registry, hub, and settings."""

import numpy as np
import pytest

from repro.core.system import DistributedJoinSystem
from repro.errors import ConfigurationError
from repro.net.link import LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventScheduler
from repro.net.topology import Network
from repro.telemetry import (
    TelemetryHub,
    TelemetrySettings,
    events,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    TimeSeries,
    format_labels,
    label_set,
)
from tests.ingress import Sink


class TestLabels:
    def test_label_set_is_sorted_and_stringified(self):
        assert label_set({"stream": "R", "node": 3}) == (
            ("node", "3"),
            ("stream", "R"),
        )

    def test_label_order_does_not_matter(self):
        assert label_set({"a": 1, "b": 2}) == label_set({"b": 2, "a": 1})

    def test_format_labels(self):
        assert format_labels(label_set({"node": 3, "stream": "R"})) == (
            "node=3;stream=R"
        )
        assert format_labels(()) == ""


class TestTimeSeries:
    def test_ring_buffer_drops_oldest(self):
        series = TimeSeries(3)
        for tick in range(5):
            series.append(float(tick), float(tick * 10))
        assert list(series) == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        assert len(series) == 3
        assert series.total_samples - len(series) == 2
        assert list(series)[-1] == (4.0, 40.0)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            TimeSeries(0)


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter("c", ())
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert counter.sample_value() == 3.5

    def test_gauge_is_point_in_time(self):
        gauge = Gauge("g", ())
        gauge.set(7)
        gauge.set(2)
        assert gauge.value == 2.0

    def test_histogram_buckets(self):
        histogram = Histogram("h", (), edges=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.count == 4
        assert histogram.total == pytest.approx(105.0)
        assert histogram.sample_value() == 4.0

    def test_rejected_observation_leaves_the_histogram_unchanged(self):
        histogram = Histogram("h", (), edges=(1.0, 2.0))
        histogram.observe(1.5)
        with pytest.raises(ValueError):
            histogram.observe(float("nan"))
        with pytest.raises(OverflowError):
            histogram.observe(float("inf"))
        assert histogram.count == 1 == sum(histogram.counts)
        assert histogram.counts == [0, 1, 0]
        assert histogram.total == 1.5
        assert histogram.sample_value() == 1.0

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", (), edges=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", (), edges=())


class TestMetricRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricRegistry()
        first = registry.counter("repro_x_total", node=1)
        second = registry.counter("repro_x_total", node=1)
        other = registry.counter("repro_x_total", node=2)
        assert first is second
        assert first is not other
        assert len(registry) == 2

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_x_total")

    def test_instruments_are_deterministically_ordered(self):
        registry = MetricRegistry()
        registry.counter("b_total", node=2)
        registry.counter("a_total")
        registry.counter("b_total", node=1)
        names = [
            (instrument.name, instrument.labels)
            for instrument in registry.instruments()
        ]
        assert names == sorted(names)

    def test_sample_appends_to_every_series(self):
        registry = MetricRegistry(series_capacity=8)
        counter = registry.counter("c_total")
        gauge = registry.gauge("g")
        counter.inc(3)
        gauge.set(5)
        registry.sample(1.0)
        counter.inc(2)
        registry.sample(2.0)
        assert registry.samples_taken == 2
        assert list(counter.series) == [(1.0, 3.0), (2.0, 5.0)]
        assert list(gauge.series) == [(1.0, 5.0), (2.0, 5.0)]
        rows = list(registry.series_rows())
        assert ("c_total", "", 1.0, 3.0) in rows
        assert ("g", "", 2.0, 5.0) in rows

    def test_get_returns_none_for_missing(self):
        registry = MetricRegistry()
        assert registry.get("absent") is None


def _message(kind=MessageKind.TUPLE, entries=0, created_at=None):
    return Message(
        kind=kind,
        source=0,
        summary_entries=entries,
        created_at=created_at,
    )


def _wired(settings):
    """A two-node 90 kbps network wired to a hub as the system wires it;
    a second send at one instant is shed at the bounded backlog."""
    scheduler = EventScheduler()
    network = Network(scheduler, 2, spec=LinkSpec(), rng=np.random.default_rng(1))
    for node_id in (0, 1):
        network.register(node_id, Sink(scheduler))
    network.link_backlog_bound_s = 1e-6
    hub = TelemetryHub(settings, clock=lambda: scheduler.now)
    network.attach_telemetry(hub)
    return scheduler, network, hub


class TestTelemetryHub:
    def test_emit_timestamps_with_clock(self):
        moments = [4.0]
        hub = TelemetryHub(clock=lambda: moments[0])
        hub.emit("a", category="test")
        moments[0] = 9.0
        hub.emit("b", category="test", time=7.5, node=2, dur_s=0.25, extra=1)
        events = list(hub.events())
        assert [event.time for event in events] == [4.0, 7.5]
        assert [event.seq for event in events] == [0, 1]
        assert events[1].node == 2
        assert events[1].dur_s == 0.25
        assert events[1].attrs == {"extra": 1}

    def test_event_ring_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(events, "EVENT_CAPACITY", 4)
        hub = TelemetryHub(TelemetrySettings(enabled=True))
        for index in range(6):
            hub.emit("e%d" % index, category="test")
        assert hub.events_emitted == 6
        assert len(list(hub.events())) == 4
        assert hub.events_dropped == 2
        assert next(iter(hub.events())).name == "e2"
        # The category counter saw every emission, not just retained ones.
        assert hub.registry.get("repro_events_total", category="test").value == 6

    def test_message_accounting(self):
        """Deliveries are counted as they happen; sends, bytes, losses and
        link sends are read from the network's tallies at a tick."""
        scheduler, network, hub = _wired(TelemetrySettings(enabled=True))
        arrival = network.send(_message(entries=3), 1)
        network.send(_message(kind=MessageKind.SUMMARY), 1)  # shed: backlog full
        scheduler.run()
        registry = hub.registry
        assert registry.get("repro_net_delivered_total", kind="tuple").value == 1
        assert registry.get("repro_net_messages_total", kind="tuple") is None
        hub.sample_tick()
        assert registry.get("repro_net_messages_total", kind="tuple").value == 1
        assert registry.get("repro_net_messages_total", kind="summary").value == 1
        assert registry.get("repro_net_bytes_total", kind="tuple").value == (
            _message(entries=3).wire_bytes
        )
        assert registry.get("repro_net_lost_total", kind="summary").value == 1
        assert registry.get("repro_net_lost_total", kind="tuple") is None
        assert registry.get("repro_net_delivered_total", kind="summary") is None
        assert registry.get("repro_link_messages_total", src=0, dst=1).value == 2
        transit = registry.get("repro_net_transit_seconds", kind="tuple")
        assert transit.count == 1
        assert transit.total == arrival  # created at t = 0
        names = [event.name for event in hub.events()]
        assert names == ["net.send", "net.drop", "net.send", "net.deliver"]

    def test_trace_messages_off_accounts_without_events(self, monkeypatch):
        settings = TelemetrySettings(enabled=True, trace_messages=False)
        scheduler, network, hub = _wired(settings)
        calls = []
        for name in ("on_message_send", "on_message_drop"):
            monkeypatch.setattr(hub, name, lambda *args: calls.append(args))
        network.send(_message(), 1)
        network.send(_message(), 1)  # shed
        scheduler.run()
        hub.sample_tick()
        assert calls == []  # the network made no per-message hub call
        assert hub.registry.get("repro_net_messages_total", kind="tuple").value == 2
        assert hub.registry.get("repro_net_lost_total", kind="tuple").value == 1
        assert len(list(hub.events())) == 0

    def test_a_repeated_tick_still_reads_the_traffic(self):
        """The end-of-run tick may land on the last scheduled one: it adds no
        series point, but the counters it exports are the final tallies."""
        settings = TelemetrySettings(enabled=True, trace_messages=False)
        _, network, hub = _wired(settings)
        hub.sample_tick(1.0)
        network.send(_message(), 1)
        hub.sample_tick(1.0)
        counter = hub.registry.get("repro_net_messages_total", kind="tuple")
        assert counter.value == 1
        assert counter.series is None
        assert hub.registry.samples_taken == 1
        assert hub.summary()["instruments"] == 3  # messages, bytes, link

    def test_fast_path_fetches_each_instrument_once(self, monkeypatch, bloom_telemetry_config):
        """A gate in counts, on a whole scripted run: the four recording
        entry points and the sampling tick go to the registry's
        get-or-create only to create.  One lookup per instrument per
        message (23,653 on this script before PR 23) or per series per
        tick (445 before PR 24, for 41 series) trips it on any machine."""
        depth = [0]
        lookups = []

        def entered(original):
            def entry_point(*args, **kwargs):
                depth[0] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return entry_point

        for name in (
            "emit",
            "on_message_send",
            "on_message_deliver",
            "on_message_drop",
            "sample_tick",
        ):
            monkeypatch.setattr(TelemetryHub, name, entered(getattr(TelemetryHub, name)))
        original_get = MetricRegistry._get

        def counting(registry, cls, name, labels, **kwargs):
            if depth[0]:
                lookups.append(name)
            return original_get(registry, cls, name, labels, **kwargs)

        monkeypatch.setattr(MetricRegistry, "_get", counting)
        system = DistributedJoinSystem(bloom_telemetry_config)
        result = system.run()
        assert result.telemetry["events_net"] > 1000  # message events were on
        assert set(lookups) == {
            "repro_events_total",
            "repro_net_messages_total",
            "repro_net_bytes_total",
            "repro_link_messages_total",
            "repro_net_delivered_total",
            "repro_net_transit_seconds",
            "repro_sched_events_processed",
            "repro_sched_pending_events",
            "repro_node_queue_depth",
            "repro_node_tuples_processed",
            "repro_node_remote_tuples",
            "repro_node_busy_seconds",
            "repro_link_backlog_seconds",
            "repro_traffic_messages_total",
            "repro_traffic_bytes_total",
            "repro_traffic_summary_bytes_total",
            "repro_traffic_net_data_bytes_total",
            "repro_traffic_summary_entries_total",
        }
        assert len(lookups) <= len(system.telemetry.registry)

    def test_sample_tick_runs_samplers_then_snapshots(self):
        hub = TelemetryHub(clock=lambda: 3.0)
        seen = []

        def sampler(now, registry):
            seen.append(now)
            registry.gauge("repro_probe").set(42)

        hub.add_sampler(sampler)
        hub.sample_tick()
        assert seen == [3.0]
        probe = hub.registry.get("repro_probe")
        assert list(probe.series) == [(3.0, 42.0)]

    def test_summary_totals(self):
        hub = TelemetryHub(clock=lambda: 0.0)
        hub.emit("a", category="net")
        hub.emit("b", category="net")
        hub.emit("c", category="node")
        hub.sample_tick(1.0)
        summary = hub.summary()
        assert summary["events_emitted"] == 3.0
        assert summary["events_dropped"] == 0.0
        assert summary["samples_taken"] == 1.0
        assert summary["events_net"] == 2.0
        assert summary["events_node"] == 1.0
        assert hub.counts_by_category() == {"net": 2, "node": 1}


class TestTelemetrySettings:
    def test_defaults_are_disabled(self):
        settings = TelemetrySettings()
        assert not settings.enabled
        settings.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sample_interval_s=0.0),
        ],
    )
    def test_validate_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            TelemetrySettings(enabled=True, **kwargs).validate()


class TestSparkline:
    def test_scales_to_the_window_min_max(self):
        from repro.telemetry.dashboard import SPARK_LEVELS, sparkline

        strip = sparkline([0.0, 5.0, 10.0])
        assert len(strip) == 3
        assert strip[0] == SPARK_LEVELS[0]
        assert strip[-1] == SPARK_LEVELS[-1]
        assert strip[1] not in (SPARK_LEVELS[0], SPARK_LEVELS[-1])

    def test_flat_and_empty_series(self):
        from repro.telemetry.dashboard import SPARK_LEVELS, sparkline

        assert sparkline([]) == ""
        assert sparkline([3.0, 3.0, 3.0]) == SPARK_LEVELS[0] * 3

    def test_window_keeps_only_the_tail(self):
        from repro.telemetry.dashboard import sparkline

        assert len(sparkline(range(100), width=10)) == 10
