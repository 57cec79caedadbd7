"""The handle-keeping hub equals the get-or-create hub, step for step.

PR 23 lets ``TelemetryHub`` keep the instrument handles its four
recording entry points fetch, and ``Histogram`` keep its exact sum as one
scaled integer.  Both are only admissible because nothing a run exports
can tell: every assertion here is ``==`` against
``tests/reference_telemetry.py`` (the pre-change bodies), never
``approx``.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import Message, MessageKind
from repro.telemetry import TelemetryHub, TelemetrySettings, export_prometheus
from repro.telemetry.registry import Histogram
from tests.reference_telemetry import ReferenceHistogram, ReferenceTelemetryHub

KINDS = list(MessageKind)
CATEGORIES = ["net", "node", "recovery", "flow"]

nodes = st.integers(min_value=0, max_value=3)
times = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
message_steps = st.tuples(
    st.sampled_from(["send", "deliver", "drop"]),
    st.sampled_from(KINDS),
    nodes,
    nodes,
    st.sampled_from([0, 3, 40]),
    st.one_of(st.none(), times),  # created_at
    times,  # now
)
emit_steps = st.tuples(
    st.just("emit"), st.sampled_from(CATEGORIES), nodes, st.one_of(st.none(), times)
)
scripts = st.lists(st.one_of(message_steps, emit_steps), max_size=60)


def apply(hub, step):
    if step[0] == "emit":
        _, category, node, dur_s = step
        hub.emit("probe", category=category, node=node, dur_s=dur_s, detail=node)
        return
    action, kind, source, destination, entries, created_at, now = step
    message = Message(
        kind=kind,
        source=source,
        destination=destination,
        summary_entries=entries,
        created_at=created_at,
    )
    getattr(hub, "on_message_" + action)(now, message)


def registry_state(hub):
    """Everything the registry can be asked, creation order included."""
    created = list(hub.registry._instruments)
    rows = []
    for instrument in hub.registry.instruments():
        row = [instrument.kind, instrument.name, instrument.labels, instrument.sample_value()]
        if isinstance(instrument, Histogram):
            row += [instrument.edges, list(instrument.counts), instrument.count, instrument.total]
        rows.append(row)
    return created, len(hub.registry), rows


@given(scripts, st.booleans())
@settings(max_examples=200, deadline=None)
def test_hub_equals_the_get_or_create_reference(tmp_path_factory, script, trace_messages):
    """Random interleavings of send / deliver (with and without
    ``created_at``) / drop / emit over every kind, 16 links and four
    categories: the same instruments in the same creation order after
    every step, and the same export bytes at the end."""
    telemetry = TelemetrySettings(enabled=True, trace_messages=trace_messages)
    ours, reference = TelemetryHub(telemetry), ReferenceTelemetryHub(telemetry)
    for step in script:
        apply(ours, step)
        apply(reference, step)
        assert registry_state(ours) == registry_state(reference)
    assert list(ours.events()) == list(reference.events())
    assert ours.summary() == reference.summary()
    ours.sample_tick(1.0)
    reference.sample_tick(1.0)
    assert list(ours.registry.series_rows()) == list(reference.registry.series_rows())
    directory = tmp_path_factory.mktemp("prom")
    assert (
        export_prometheus(ours, directory / "ours.prom").read_bytes()
        == export_prometheus(reference, directory / "reference.prom").read_bytes()
    )


def test_every_instrument_family_is_reached_by_a_fixed_script():
    """The fixed case behind the property, with proof that each of the
    seven cached families was created -- and only at its first use."""
    ours = TelemetryHub(TelemetrySettings(enabled=True, trace_messages=True))
    reference = ReferenceTelemetryHub(TelemetrySettings(enabled=True, trace_messages=True))
    assert len(ours.registry) == 0  # nothing is pre-registered
    script = [
        ("send", MessageKind.TUPLE, 0, 1, 3, 0.5, 0.5),
        ("deliver", MessageKind.TUPLE, 0, 1, 3, None, 0.75),
        ("deliver", MessageKind.TUPLE, 0, 1, 3, 0.5, 0.75),
        ("drop", MessageKind.SUMMARY, 1, 2, 40, 0.5, 1.0),
        ("emit", "recovery", 2, None),
        ("send", MessageKind.TUPLE, 0, 1, 0, 1.0, 1.0),
    ]
    sizes = []
    for step in script:
        apply(ours, step)
        apply(reference, step)
        assert registry_state(ours) == registry_state(reference)
        sizes.append(len(ours.registry))
    # send: messages + bytes + link + events{net}; the first delivery has no
    # created_at, so the transit histogram waits for the second; the repeat
    # send at the end creates nothing.
    assert sizes == [4, 5, 6, 7, 8, 8]
    assert [name for name, _ in ours.registry._instruments] == [
        "repro_net_messages_total",
        "repro_net_bytes_total",
        "repro_link_messages_total",
        "repro_events_total",
        "repro_net_delivered_total",
        "repro_net_transit_seconds",
        "repro_net_lost_total",
        "repro_events_total",
    ]


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
