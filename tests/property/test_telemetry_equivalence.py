"""The tick-reading, row-keeping hub equals the per-send hub it replaced.

``TelemetryHub`` reads the network's send, byte, loss and link counts
from ``Network.stats`` and the links at each sampling tick instead of
counting every send and loss again, and keeps its events as plain rows.
That is only admissible because nothing a run can observe tells: every
assertion here is ``==`` against ``tests/reference_telemetry.py``'s
``PerSendHub`` (the pre-change hub) and ``ReferenceTelemetryHub`` (the
get-or-create hub it was held to before), never ``approx``.

The hubs are driven through the same scripts of sends, deliveries,
drops, emits and ticks: ours through a real ``Network`` (a send is
``Network.send``, a drop the link's loss path), the references through
their per-message calls.  After every tick and at the end of a script
(which ends with a tick, as a run does) the retained events, the
summary, the series rows and the Prometheus bytes must be equal.  The
registry's creation order is not compared: no exporter reads it
(``instruments()`` and ``series_rows()`` both sort).
"""

import math
from collections import deque
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventScheduler
from repro.net.topology import Network
from repro.telemetry import TelemetryHub, TelemetrySettings, events, export_prometheus
from repro.telemetry.registry import Histogram, TimeSeries
from tests.ingress import Sink
from tests.reference_telemetry import (
    PerSendHub,
    ReferenceHistogram,
    ReferenceTelemetryHub,
)

NUM_NODES = 4
KINDS = list(MessageKind)
CATEGORIES = ["net", "node", "recovery", "flow"]

nodes = st.integers(min_value=0, max_value=NUM_NODES - 1)
links = st.tuples(nodes, nodes).filter(lambda link: link[0] != link[1])
times = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
message_steps = st.tuples(
    st.sampled_from(["send", "deliver", "drop"]),
    st.sampled_from(KINDS),
    links,
    st.sampled_from([0, 3, 40]),
    st.one_of(st.none(), times),  # created_at, read by deliveries
    times,  # now
)
emit_steps = st.tuples(
    st.just("emit"),
    st.sampled_from(CATEGORIES),
    nodes,
    st.one_of(st.none(), times),  # dur_s
    st.dictionaries(
        st.sampled_from(["kind", "detail", "active"]),
        st.one_of(st.integers(-3, 3), st.sampled_from(["a", "tuple"]), st.none()),
        max_size=3,
    ),
)
tick_steps = st.tuples(st.just("tick"), st.sampled_from([1.0, 2.0, 2.5, 7.0]))
scripts = st.lists(st.one_of(message_steps, emit_steps, tick_steps), max_size=60)


class Ours:
    """Our hub, wired to a network as the system wires it."""

    def __init__(self, telemetry):
        self.scheduler = EventScheduler()
        self.network = Network(
            self.scheduler,
            NUM_NODES,
            spec=LinkSpec(bandwidth_bps=math.inf),
            rng=np.random.default_rng(0),
        )
        for node_id in range(NUM_NODES):
            self.network.register(node_id, Sink(self.scheduler))
        self.hub = TelemetryHub(telemetry, clock=lambda: self.scheduler.now)
        self.network.attach_telemetry(self.hub)

    def send(self, now, message, destination):
        self.scheduler.now = now
        self.network.send(message, destination)

    def drop(self, now, message, destination):
        self.scheduler.now = now
        self.network.link(message.source, destination)._drop(message)


class Reference:
    """A reference hub fed the per-message calls the network used to make."""

    def __init__(self, cls, telemetry, clock):
        self.hub = cls(telemetry, clock=clock)

    def send(self, now, message, destination):
        self.hub.on_message_send(now, message, destination)

    def drop(self, now, message, destination):
        self.hub.on_message_drop(now, message, destination)


def apply(side, step):
    hub = side.hub
    if step[0] == "tick":
        hub.sample_tick(step[1])
    elif step[0] == "emit":
        _, category, node, dur_s, attrs = step
        hub.emit("probe", category=category, node=node, dur_s=dur_s, **attrs)
    else:
        action, kind, (source, destination), entries, created_at, now = step
        message = Message(
            kind=kind,
            source=source,
            summary_entries=entries,
            created_at=created_at,
        )
        if action == "deliver":
            hub.on_message_deliver(now, message, destination)
        else:
            getattr(side, action)(now, message, destination)


def observed(hub, directory, name):
    """Everything a run can read from a hub: its events (attribute order
    included), summary, series rows and Prometheus bytes."""
    events = [(event, list(event.attrs)) for event in hub.events()]
    prom = export_prometheus(hub, directory / ("%s.prom" % name)).read_bytes()
    return events, hub.summary(), list(hub.registry.series_rows()), prom


def run_script(script, telemetry, directory):
    ours = Ours(telemetry)
    clock = lambda: ours.scheduler.now
    references = [
        Reference(PerSendHub, telemetry, clock),
        Reference(ReferenceTelemetryHub, telemetry, clock),
    ]
    sides = [ours] + references
    for step in script + [("tick", 60.0)]:
        for side in sides:
            apply(side, step)
        if step[0] == "tick":
            expected = observed(ours.hub, directory, "ours")
            for reference in references:
                assert observed(reference.hub, directory, "reference") == expected
    return ours.hub


@given(scripts, st.booleans(), st.sampled_from([3, 8, events.EVENT_CAPACITY]))
@settings(max_examples=200, deadline=None)
def test_hub_equals_the_get_or_create_reference(
    tmp_path_factory, script, trace_messages, capacity
):
    """Random interleavings of send / deliver (with and without
    ``created_at``) / drop / emit / tick over every kind, the 12 links of a
    4-node mesh and four categories, with message events on and off, and
    event rings small enough to overflow."""
    telemetry = TelemetrySettings(enabled=True, trace_messages=trace_messages)
    with mock.patch.object(events, "EVENT_CAPACITY", capacity):
        run_script(script, telemetry, tmp_path_factory.mktemp("prom"))


def test_every_instrument_family_is_reached_by_a_fixed_script(tmp_path):
    """The fixed case behind the property, with proof that each of the
    seven families was created, none before its first use, and that a
    repeated tick (the end-of-run tick landing on a scheduled one) still
    reads the network's tallies."""
    telemetry = TelemetrySettings(enabled=True, trace_messages=True)
    script = [
        ("tick", 1.0),
        ("send", MessageKind.TUPLE, (0, 1), 3, None, 1.0),
        ("deliver", MessageKind.TUPLE, (0, 1), 3, None, 1.25),
        ("deliver", MessageKind.TUPLE, (0, 1), 3, 1.0, 1.25),
        ("drop", MessageKind.SUMMARY, (1, 2), 40, None, 1.5),
        ("emit", "recovery", 2, None, {"active": 1}),
        ("tick", 2.0),
        ("send", MessageKind.RESULT, (2, 3), 0, None, 2.0),
        ("tick", 2.0),
    ]
    ours = run_script(script, telemetry, tmp_path)
    registry = ours.registry
    # The repeated instant samples nothing but makes the RESULT counter
    # (the summaries compared at that tick count it); the closing tick
    # gives it its first point.
    assert registry.samples_taken == 3
    assert list(registry.get("repro_net_messages_total", kind="result").series) == [
        (60.0, 1.0)
    ]
    families = {instrument.name for instrument in registry.instruments()}
    assert families == {
        "repro_events_total",
        "repro_net_messages_total",
        "repro_net_bytes_total",
        "repro_link_messages_total",
        "repro_net_delivered_total",
        "repro_net_transit_seconds",
        "repro_net_lost_total",
    }
    fresh = TelemetryHub(telemetry)
    Ours(telemetry).network.attach_telemetry(fresh)
    fresh.sample_tick(1.0)
    assert len(fresh.registry) == 0  # nothing is pre-registered


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.tuples(times, st.floats(allow_nan=False)), max_size=12),
)
def test_time_series_is_a_ring_of_pairs(capacity, samples):
    """Two rings of floats read back as the ring of ``(time, value)``
    tuples the series used to keep."""
    series, pairs = TimeSeries(capacity), deque(maxlen=capacity)
    for time, value in samples:
        series.append(time, value)
        pairs.append((time, value))
        assert list(series) == list(pairs) and len(series) == len(pairs)
    assert series.total_samples == len(samples)


# -- Histogram.total ---------------------------------------------------------

observations = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals and their neighbours
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3]),
    ),
    max_size=40,
)


def exact_total(values):
    return float(sum((Fraction(value) for value in values), Fraction(0)))


@given(observations, st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_histogram_total_is_the_exact_sum_in_any_order(values, shuffler):
    try:
        expected = exact_total(values)
    except OverflowError:  # the exact sum is beyond the largest double
        expected = None
    shuffled = list(values)
    shuffler.shuffle(shuffled)
    for order in (values, shuffled):
        ours, reference = Histogram("h", ()), ReferenceHistogram("h", ())
        for value in order:
            ours.observe(value)
            reference.observe(value)
        assert ours.counts == reference.counts and ours.count == reference.count
        if expected is None:
            with pytest.raises(OverflowError):
                ours.total
            continue
        assert ours.total == expected == reference.total
        assert math.copysign(1.0, ours.total) == math.copysign(1.0, expected)


def test_histogram_total_cases_a_running_float_gets_wrong():
    values = [1e308, 1.0, -1e308, 5e-324, 0.1, 0.2, 0.3]
    histogram = Histogram("h", ())
    for value in values:
        histogram.observe(value)
    assert histogram.total == exact_total(values)
    assert histogram.total != sum(values)
