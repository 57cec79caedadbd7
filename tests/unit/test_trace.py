"""Unit tests for message tracing: the hub's ``net.*`` events."""

from collections import Counter

import numpy as np

from repro.config import TelemetrySettings
from repro.net.link import LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventScheduler
from repro.net.topology import Network
from repro.telemetry import TelemetryHub
from repro.telemetry import events as telemetry_events
from tests.ingress import Sink


def traced_network():
    scheduler = EventScheduler()
    network = Network(scheduler, 3, spec=LinkSpec(), rng=np.random.default_rng(1))
    for node_id in (0, 1, 2):
        network.register(node_id, Sink(scheduler))
    network.attach_telemetry(
        TelemetryHub(
            TelemetrySettings(enabled=True, trace_messages=True),
            clock=lambda: scheduler.now,
        )
    )
    return scheduler, network


def sends(network):
    return [e for e in network.telemetry.events() if e.name == "net.send"]


def test_records_every_send():
    _, network = traced_network()
    for destination in (1, 2, 1):
        network.send(Message(kind=MessageKind.TUPLE, source=0), destination)
    records = sends(network)
    assert len(records) == 3
    assert [r.attrs["dst"] for r in records] == [1, 2, 1]
    assert all(r.node == 0 for r in records)
    assert all(r.attrs["kind"] == "tuple" for r in records)


def test_ring_buffer_drops_oldest(monkeypatch):
    monkeypatch.setattr(telemetry_events, "EVENT_CAPACITY", 2)
    _, network = traced_network()
    for destination in (1, 2, 1, 2, 1):
        network.send(Message(kind=MessageKind.TUPLE, source=0), destination)
    hub = network.telemetry
    assert len(list(hub.events())) == 2
    assert hub.events_dropped == 3
    assert hub.events_emitted == 5
    assert [r.attrs["dst"] for r in sends(network)] == [2, 1]


def test_filtering():
    _, network = traced_network()
    network.send(Message(kind=MessageKind.TUPLE, source=0), 1)
    network.send(Message(kind=MessageKind.SUMMARY, source=1, summary_entries=3), 2)
    network.send(Message(kind=MessageKind.TUPLE, source=2), 0)
    records = sends(network)
    assert len([r for r in records if r.node == 0]) == 1
    assert len([r for r in records if r.attrs["kind"] == "tuple"]) == 2
    summaries = [
        r for r in records if r.attrs["dst"] == 2 and r.attrs["kind"] == "summary"
    ]
    assert len(summaries) == 1
    assert summaries[0].attrs["entries"] == 3
    assert [r for r in records if r.node == 9] == []


def test_counts_by_kind_and_tail():
    scheduler, network = traced_network()
    for _ in range(4):
        network.send(Message(kind=MessageKind.TUPLE, source=0), 1)
    network.send(Message(kind=MessageKind.RESULT, source=1), 0)
    counts = Counter(r.attrs["kind"] for r in sends(network))
    assert counts == {"tuple": 4, "result": 1}
    assert counts == network.stats.messages_by_kind
    tail = sends(network)[-2:]
    assert len(tail) == 2
    assert tail[-1].attrs["kind"] == "result"
    scheduler.run()
    delivered = Counter(
        e.attrs["kind"] for e in network.telemetry.events() if e.name == "net.deliver"
    )
    assert delivered == counts


def test_untraced_network_has_no_overhead_path():
    scheduler = EventScheduler()
    network = Network(scheduler, 2, rng=np.random.default_rng(2))
    network.register(0, Sink(scheduler))
    network.register(1, Sink(scheduler))
    network.send(Message(kind=MessageKind.TUPLE, source=0), 1)
    assert network.telemetry is None
    assert network.stats.total_messages == 1
