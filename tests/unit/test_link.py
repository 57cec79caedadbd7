"""Unit tests for the WAN link model."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net import link as link_module
from repro.net.link import Link, LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventKeySource, EventScheduler
from tests.ingress import event_ingress


def _tuple_message():
    return Message(kind=MessageKind.TUPLE, source=0)


def transmission_time(spec, message):
    """Serialization delay for ``message`` at the link bandwidth."""
    return message.wire_bytes * 8.0 / spec.bandwidth_bps


def _make_link(spec, delivered):
    scheduler = EventScheduler()
    link = Link(
        scheduler,
        spec,
        deliver=delivered.append,
        take=event_ingress(scheduler),
        key_source=EventKeySource(0),
        rng=np.random.default_rng(7),
    )
    return scheduler, link


def _latency(monkeypatch, low, high):
    """Every link's propagation range, for the rest of the test."""
    monkeypatch.setattr(link_module, "LATENCY_MIN_S", low)
    monkeypatch.setattr(link_module, "LATENCY_MAX_S", high)


def test_default_spec_matches_paper():
    spec = LinkSpec()
    assert spec.bandwidth_bps == 90_000.0
    assert link_module.LATENCY_MIN_S == 0.020
    assert link_module.LATENCY_MAX_S == 0.100


def test_invalid_specs_rejected():
    with pytest.raises(ConfigurationError):
        LinkSpec(bandwidth_bps=0).validate()


def test_nan_bandwidth_is_rejected_and_infinity_is_not():
    """A NaN bandwidth would put every arrival, and the clock, at NaN."""
    with pytest.raises(ConfigurationError):
        LinkSpec(bandwidth_bps=float("nan")).validate()
    LinkSpec(bandwidth_bps=math.inf).validate()


def test_delivery_includes_transmission_and_latency(monkeypatch):
    delivered = []
    _latency(monkeypatch, 0.05, 0.05)
    spec = LinkSpec()
    scheduler, link = _make_link(spec, delivered)
    message = _tuple_message()
    expected_tx = message.wire_bytes * 8.0 / spec.bandwidth_bps
    arrival = link.send(message)
    assert arrival == pytest.approx(expected_tx + 0.05)
    scheduler.run()
    assert delivered == [message]
    assert scheduler.now == pytest.approx(arrival)


def test_fifo_serialization_backlog(zero_latency):
    delivered = []
    scheduler, link = _make_link(LinkSpec(), delivered)
    first = _tuple_message()
    second = _tuple_message()
    t1 = link.send(first)
    t2 = link.send(second)
    tx = transmission_time(LinkSpec(), first)
    assert t1 == pytest.approx(tx)
    assert t2 == pytest.approx(2 * tx)
    assert link.queue_depth_seconds() == pytest.approx(2 * tx)
    scheduler.run()
    assert delivered == [first, second]


def test_backlog_bound_sheds_at_the_send_buffer(zero_latency):
    delivered = []
    dropped = []
    scheduler = EventScheduler()
    link = Link(
        scheduler,
        LinkSpec(),
        deliver=delivered.append,
        take=event_ingress(scheduler),
        key_source=EventKeySource(0),
        rng=np.random.default_rng(7),
        endpoints=(0, 1),
        on_drop=lambda message, destination: dropped.append((message, destination)),
    )
    first = _tuple_message()
    tx = transmission_time(LinkSpec(), first)
    link.backlog_bound_s = 1.5 * tx
    link.send(first)
    second = _tuple_message()
    link.send(second)  # backlog == tx < bound: still admitted
    third = _tuple_message()
    link.send(third)  # backlog == 2*tx >= bound: shed
    assert link.messages_shed == 1
    assert dropped == [(third, 1)]  # the link names the copy's destination
    scheduler.run()
    assert delivered == [first, second]
    # Shed messages count as losses with byte accounting.
    assert link.messages_lost == 1
    assert link.bytes_lost == third.wire_bytes


def test_backlog_bound_zero_keeps_unbounded_legacy_backlog(zero_latency):
    delivered = []
    scheduler, link = _make_link(LinkSpec(), delivered)
    messages = [_tuple_message() for _ in range(50)]
    for message in messages:
        link.send(message)
    assert link.messages_shed == 0
    scheduler.run()
    assert delivered == messages


def test_shedding_does_not_perturb_the_latency_stream(monkeypatch):
    """A bounded link's jitter draws are a pure function of the messages
    that actually occupy it -- shed sends consume no RNG."""
    _latency(monkeypatch, 0.01, 0.2)
    spec = LinkSpec()

    def arrivals(extra_burst):
        delivered = []
        scheduler = EventScheduler()
        link = Link(
            scheduler,
            spec,
            deliver=delivered.append,
            take=event_ingress(scheduler),
            key_source=EventKeySource(0),
            rng=np.random.default_rng(7),
        )
        first = _tuple_message()
        link.backlog_bound_s = 1.5 * transmission_time(LinkSpec(), first)
        times = [link.send(first), link.send(_tuple_message())]
        if extra_burst:
            for _ in range(5):
                link.send(_tuple_message())  # all shed at the bound
        scheduler.run()
        return times

    burst = arrivals(extra_burst=True)
    quiet = arrivals(extra_burst=False)
    assert burst == quiet


def test_latency_sampled_within_range():
    delivered = []
    scheduler, link = _make_link(LinkSpec(), delivered)
    tx = transmission_time(LinkSpec(), _tuple_message())
    free_at = 0.0
    for _ in range(50):
        message = _tuple_message()
        arrival = link.send(message)
        free_at += tx
        latency = arrival - free_at
        # FIFO ordering can only delay beyond the sampled latency.
        assert latency >= 0.02 - 1e-12
    scheduler.run()
    assert len(delivered) == 50


def test_order_preserved_end_to_end(monkeypatch):
    delivered = []
    _latency(monkeypatch, 0.0, 0.5)
    scheduler, link = _make_link(LinkSpec(), delivered)
    messages = [_tuple_message() for _ in range(30)]
    for message in messages:
        link.send(message)
    scheduler.run()
    assert delivered == messages


def test_infinite_bandwidth_means_zero_serialization(monkeypatch):
    delivered = []
    _latency(monkeypatch, 0.03, 0.03)
    scheduler, link = _make_link(LinkSpec(bandwidth_bps=math.inf), delivered)
    arrival = link.send(_tuple_message())
    assert arrival == pytest.approx(0.03)


def test_counters_accumulate():
    delivered = []
    scheduler, link = _make_link(LinkSpec(), delivered)
    total = 0
    for _ in range(4):
        message = _tuple_message()
        total += message.wire_bytes
        link.send(message)
    assert link.messages_sent == 4
    assert link.bytes_sent == total
    assert link.queue_depth_seconds() == pytest.approx(total * 8.0 / 90_000.0)


QUERIES = (
    "node_down",
    "restartable_down",
    "link_blocked",
    "extra_loss",
    "extra_latency",
    "service_factor",
)


def test_a_send_on_a_faulted_link_asks_the_injector_nothing(monkeypatch):
    """A send reads the injector's per-link table; it calls none of the six
    point queries (the scanning injector took three per send)."""
    from repro.net.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan

    plan = FaultPlan.from_events(
        [
            FaultEvent(FaultKind.LOSS_BURST, 0.0, 9.0, loss_probability=0.5),
            FaultEvent(FaultKind.LATENCY_SPIKE, 0.0, 9.0, extra_latency_s=0.25),
            FaultEvent(FaultKind.LINK_OUTAGE, 0.0, 9.0, links=((1, 0),)),
        ]
    )
    scheduler = EventScheduler()
    injector = FaultInjector(plan, 2)
    injector.install(scheduler)
    scheduler.run(until=1.0)
    delivered = []
    links = [
        Link(scheduler, LinkSpec(), delivered.append, event_ingress(scheduler),
             EventKeySource(rank),
             rng=np.random.default_rng(seed), endpoints=endpoints,
             fault_injector=injector)
        for seed, rank, endpoints in ((3, 3, (0, 1)), (4, 4, (1, 0)))
    ]
    calls = []

    def counted(name):
        original = getattr(FaultInjector, name)

        def query(self, *args):
            calls.append(name)
            return original(self, *args)

        return query

    for name in QUERIES:
        monkeypatch.setattr(FaultInjector, name, counted(name))
    for _ in range(20):
        for link in links:
            link.send(_tuple_message())
    assert calls == []
    assert links[1].messages_lost == 20  # the outage severs 1 -> 0
    assert 0 < links[0].messages_lost < 20  # the loss burst draws
    assert injector.messages_blocked == links[0].messages_lost + 20
