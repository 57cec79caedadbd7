"""Unit tests for the full-mesh network."""

import numpy as np
import pytest

from repro._rng import ensure_rng, spawn
from repro.errors import ConfigurationError, SimulationError
from repro.net.link import LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventScheduler
from repro.net.topology import Network
from tests.ingress import Sink


def per_sender(network):
    """Per-sender totals: ``link_stats()`` rows summed by source."""
    totals = {}
    for (source, _), row in network.link_stats().items():
        totals[source] = tuple(map(sum, zip(totals.get(source, (0,) * 5), row)))
    return totals


def _network(n=3, spec=None):
    scheduler = EventScheduler()
    network = Network(
        scheduler, n, spec=spec or LinkSpec(), rng=np.random.default_rng(5)
    )
    endpoints = [Sink(scheduler) for _ in range(n)]
    for node_id, endpoint in enumerate(endpoints):
        network.register(node_id, endpoint)
    return scheduler, network, endpoints


def test_register_rejects_duplicates():
    scheduler, network, _ = _network(2)
    with pytest.raises(ConfigurationError):
        network.register(0, Sink(scheduler))


def test_send_delivers_to_destination_only():
    scheduler, network, endpoints = _network(3)
    message = Message(kind=MessageKind.TUPLE, source=0)
    network.send(message, 2)
    scheduler.run()
    assert endpoints[2].received == [message]
    assert endpoints[1].received == []


def test_self_send_rejected():
    _, network, _ = _network(2)
    with pytest.raises(SimulationError):
        network.send(Message(kind=MessageKind.TUPLE, source=1), 1)


def test_self_link_is_refused_and_the_mesh_keeps_its_streams():
    """No link ``i -> i`` exists, and refusing it takes no generator from
    the grid: link ``s -> d`` still draws from child ``s * n + d`` of the
    ``n * n`` spawned from the network's seed."""
    _, network, _ = _network(3)
    for node in range(3):
        with pytest.raises(SimulationError):
            network.link(node, node)
    with pytest.raises(SimulationError):
        network.send(Message(kind=MessageKind.TUPLE, source=2), 2)
    assert network.stats.total_messages == 0
    assert list(network.iter_links()) == []
    children = spawn(ensure_rng(np.random.default_rng(5)), 9)
    for source, destination in ((0, 1), (1, 2), (2, 0)):
        drawn = network.link(source, destination)._rng.random(4)
        assert drawn.tolist() == children[source * 3 + destination].random(4).tolist()


def test_send_to_unregistered_endpoint_rejected():
    _, network, _ = _network(2)
    with pytest.raises(SimulationError):
        network.send(Message(kind=MessageKind.TUPLE, source=0), 9)


def test_links_are_per_direction():
    _, network, _ = _network(2)
    forward = network.link(0, 1)
    backward = network.link(1, 0)
    assert forward is not backward
    assert network.link(0, 1) is forward  # cached


def test_stats_accumulate_globally_and_per_sender():
    scheduler, network, _ = _network(3)
    for destination in (1, 2):
        network.send(Message(kind=MessageKind.TUPLE, source=0), destination)
    network.send(Message(kind=MessageKind.SUMMARY, source=1, summary_entries=4), 0)
    scheduler.run()
    assert network.stats.total_messages == 3
    assert per_sender(network) == {0: (2, 144, 0, 0, 0), 1: (1, 104, 0, 0, 0)}
    assert network.stats.summary_entries == 4


def test_node_ids_sorted():
    _, network, _ = _network(3)
    assert network.node_ids == (0, 1, 2)


def test_backlog_reporting(zero_latency):
    scheduler, network, _ = _network(2)

    def total_backlog():
        return sum(link.queue_depth_seconds() for _, link in network.iter_links())

    assert total_backlog() == 0.0
    for _ in range(3):
        network.send(Message(kind=MessageKind.TUPLE, source=0), 1)
    assert network.link(0, 1).queue_depth_seconds() > 0.0
    assert total_backlog() == pytest.approx(network.link(0, 1).queue_depth_seconds())
    scheduler.run()
    assert total_backlog() == 0.0


def test_send_accounting_matches_the_recorded_script():
    """Count gate for the send path: 61 sends of every kind over a lossy,
    prepared 3-node mesh, from inside keyed events.  The expected values
    were recorded from ``src/`` as of PR 19, before the send path computed
    a message's size and kind label once; nothing below may move."""
    scheduler = EventScheduler()
    network = Network(
        scheduler,
        3,
        spec=LinkSpec(loss_probability=0.25),
        rng=np.random.default_rng(11),
    )
    endpoints = [Sink(scheduler) for _ in range(3)]
    for node_id, endpoint in enumerate(endpoints):
        network.register(node_id, endpoint)
    kinds = list(MessageKind)
    order = {}  # id(message) -> its index in the send order

    def send(message, destination):
        order[id(message)] = len(order)
        network.send(message, destination)
        return message

    sent = [send(Message(kind=MessageKind.CONTROL, source=0), 1)]

    def burst(step):
        for index in range(6):
            source = (step + index) % 3
            sent.append(send(
                Message(
                    kind=kinds[(step * 6 + index) % len(kinds)],
                    source=source,
                    summary_entries=(step + index) % 4,
                ),
                (source + 1 + index % 2) % 3,
            ))

    for step in range(10):
        scheduler.schedule_at(0.5 * step, lambda s=step: burst(s), key=(step % 3, step))
    scheduler.run()

    def flat(stats):
        # Counter order is first-occurrence order and shows in reports.
        return (
            list(stats.messages_by_kind.items()),
            list(stats.bytes_by_kind.items()),
            stats.summary_bytes,
            stats.net_data_bytes,
            stats.summary_entries,
            stats.messages_lost,
            stats.bytes_lost,
            list(stats.lost_by_kind.items()),
        )

    assert flat(network.stats) == (
        [("control", 10), ("tuple", 9), ("summary", 9), ("result", 9), ("ack", 8),
         ("heartbeat", 8), ("state_transfer", 8)],
        [("control", 580), ("tuple", 908), ("summary", 476), ("result", 908),
         ("ack", 472), ("heartbeat", 352), ("state_transfer", 472)],
        1760, 2408, 88, 16, 864,
        [("summary", 4), ("result", 2), ("control", 1), ("state_transfer", 1),
         ("ack", 3), ("heartbeat", 3), ("tuple", 2)],
    )
    # Per sender: (messages, bytes, messages lost, bytes lost, shed).
    assert per_sender(network) == {
        0: (21, 1376, 5, 268, 0),
        1: (20, 1432, 4, 264, 0),
        2: (20, 1360, 7, 332, 0),
    }
    assert network.link_stats() == {
        (0, 1): (11, 724, 1, 64, 0),
        (1, 2): (10, 692, 2, 148, 0),
        (2, 0): (10, 708, 3, 168, 0),
        (0, 2): (10, 652, 4, 204, 0),
        (1, 0): (10, 740, 2, 116, 0),
        (2, 1): (10, 652, 4, 164, 0),
    }
    # Which messages arrived where, in what order (by index in the send order).
    assert [
        [order[id(message)] for message in endpoint.received]
        for endpoint in endpoints
    ] == [
        [3, 18, 13, 20, 28, 31, 36, 38, 39, 46, 47, 54, 49, 57, 56],
        [0, 1, 6, 9, 8, 16, 17, 19, 35, 37, 42, 45, 53, 52, 55, 60],
        [5, 4, 7, 12, 14, 15, 22, 23, 25, 32, 41, 43, 58, 59],
    ]
    assert scheduler.events_processed == 55
    assert scheduler.now == 4.582685314572364
