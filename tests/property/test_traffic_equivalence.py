"""The inline send tally equals the per-message ``record`` fold, and a
broadcast that shares one message equals one message per copy.

``Network.send`` finds its link with one dict lookup and tallies the
message's kind, bytes and summary entries itself, from the size fixed
when the message was built.  That is only admissible because nothing a
run can see moves: two meshes built alike carry the same script, one
through ``Network.send`` and one through ``tests/reference_traffic.py``
(the link lookup, self-send check and ``TrafficStats.record`` it
replaced), and every counter, per kind and in ``Counter`` order, every
link's totals, every returned arrival time and every delivery are
``==``.  The scripts mix every kind, 0 to 40 summary entries, losses in
transit and sheds at a bounded send backlog.

The node's fan-out (``JoinProcessingNode._forward``) builds one TUPLE
message that every destination without pending summary updates shares;
the reference (``tests/reference_traffic.forward``) builds one per copy.
Random fan-outs -- some destinations with updates pending, some links
lossy or with a bounded backlog, the hub tracing messages or not -- go
through both over meshes built alike, and the deliveries in order
(receiver, source, kind, payload, entries, arrival time, send instant),
each copy's event key, the returned sender pauses (bit for bit), the
last-contact times, the tallies, the link counters and the hub's events
(``dst`` and ``node`` included) are ``==``.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import JoinProcessingNode
from repro.core.summaries import SummaryOutbox, SummaryUpdate
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.link import Link, LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventScheduler
from repro.net.topology import Network
from repro.streams.tuples import StreamId, StreamTuple
from repro.telemetry import TelemetryHub, TelemetrySettings
from tests.ingress import Sink, event_ingress
from tests.reference_traffic import forward as reference_forward
from tests.reference_traffic import send as reference_send

KINDS = list(MessageKind)
NODES = 3

scripts = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.005, 0.05, 0.3]),
        st.integers(min_value=0, max_value=NODES - 1),
        st.integers(min_value=1, max_value=NODES - 1),
        st.integers(min_value=0, max_value=len(KINDS) - 1),
        st.sampled_from([0, 0, 1, 8, 40]),
    ),
    max_size=60,
)


def drive(send, loss, bound, seed, script):
    """Carry ``script`` over a fresh mesh; return everything observable."""
    scheduler = EventScheduler()
    network = Network(
        scheduler, NODES, spec=LinkSpec(loss_probability=loss),
        rng=np.random.default_rng(seed),
    )
    network.link_backlog_bound_s = bound
    sinks = [Sink(scheduler) for _ in range(NODES)]
    for node, sink in enumerate(sinks):
        network.register(node, sink)
    index_of = {}
    returned = []
    for index, (gap, source, offset, kind, entries) in enumerate(script):
        scheduler.run(until=scheduler.now + gap)
        message = Message(kind=KINDS[kind], source=source, summary_entries=entries)
        index_of[id(message)] = index
        returned.append(send(network, message, (source + offset) % NODES))
    scheduler.run()
    stats = network.stats
    tallies = (
        list(stats.messages_by_kind.items()),
        list(stats.bytes_by_kind.items()),
        list(stats.lost_by_kind.items()),
        stats.summary_bytes,
        stats.net_data_bytes,
        stats.summary_entries,
        stats.messages_lost,
        stats.bytes_lost,
    )
    received = [[index_of[id(m)] for m in sink.received] for sink in sinks]
    return tallies, network.link_stats(), returned, received


@given(
    st.sampled_from([0.0, 0.0, 0.3]),
    st.sampled_from([0.0, 0.0, 0.004, 0.02]),
    st.integers(min_value=0, max_value=2**32 - 1),
    scripts,
)
@settings(max_examples=150, deadline=None)
def test_inline_tally_equals_the_record_fold(loss, bound, seed, script):
    ours = drive(Network.send, loss, bound, seed, script)
    assert ours == drive(reference_send, loss, bound, seed, script)


def test_a_mixed_script_reaches_every_regime():
    """The fixed case behind the property: every kind, summary entries,
    losses in transit and sheds at the bound, each shown to occur."""
    rng = np.random.default_rng(3)
    script = [
        (
            float(rng.choice([0.0, 0.005, 0.05])),
            int(rng.integers(NODES)),
            int(rng.integers(1, NODES)),
            index % len(KINDS),
            int(rng.choice([0, 1, 8, 40])),
        )
        for index in range(120)
    ]
    ours = drive(Network.send, 0.3, 0.02, 11, script)
    assert ours == drive(reference_send, 0.3, 0.02, 11, script)
    tallies, link_stats, _, received = ours
    by_kind = dict(tallies[0])
    assert set(by_kind) == {kind.value for kind in MessageKind}
    assert tallies[5] > 0  # summary entries
    shed = sum(row[4] for row in link_stats.values())
    assert shed > 0 and tallies[6] > shed  # sheds, and losses in transit
    assert sum(map(len, received)) + tallies[6] == len(script)


# -- broadcasts ---------------------------------------------------------

MESH = 4
PAIRS = [(s, d) for s in range(MESH) for d in range(MESH) if s != d]

fanouts = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.002, 0.02, 0.2]),  # gap before it
        st.integers(min_value=0, max_value=MESH - 1),  # source
        st.permutations(range(1, MESH)),  # peer offsets, in send order
        st.integers(min_value=0, max_value=MESH - 1),  # how many are sent
        # Summary entries queued per peer offset before it; 0 queues none.
        st.lists(
            st.sampled_from([0, 0, 0, 1, 8]), min_size=MESH - 1, max_size=MESH - 1
        ),
    ),
    max_size=40,
)


class Receiver:
    """An endpoint without an inbox that logs each copy's event key as it
    is taken and each delivery as it happens, into one shared log."""

    def __init__(self, node_id, scheduler, log):
        self.node_id = node_id
        self.scheduler = scheduler
        self.log = log
        ingress = event_ingress(scheduler)

        def take(entry):
            log.append(("take", node_id, tuple(entry[:4])))
            ingress(entry)

        self.take = take

    def on_message(self, message):
        self.log.append((
            "deliver", self.node_id, self.scheduler.now, message.source,
            message.kind_name, message.payload, message.summary_entries,
            message.created_at,
        ))


def broadcast(forward, seed, lossy, bounded, trace, script):
    """Carry the fan-outs of ``script`` with ``forward``; return everything
    observable, and how many distinct message objects each fan-out put on
    its links.  A sender is a stand-in holding only what the fan-out
    reads: ``node_id``, ``network``, ``policy.outbox`` and
    ``_last_contact``."""
    scheduler = EventScheduler()
    network = Network(scheduler, MESH, rng=np.random.default_rng(seed))
    if lossy:
        plan = "; ".join(
            "loss@t=0,d=1000,p=0.4,link=%d-%d" % pair for pair in sorted(lossy)
        )
        network.fault_injector = FaultInjector(FaultPlan.parse(plan, MESH), MESH)
        network.fault_injector.install(scheduler)
    log = []
    for node_id in range(MESH):
        network.register(node_id, Receiver(node_id, scheduler, log))
    for pair, bound in sorted(bounded.items()):
        network.link(*pair).backlog_bound_s = bound
    hub = TelemetryHub(
        TelemetrySettings(enabled=True, trace_messages=trace),
        clock=lambda: scheduler.now,
    )
    network.attach_telemetry(hub)
    senders = [
        SimpleNamespace(
            node_id=node_id,
            network=network,
            policy=SimpleNamespace(
                outbox=SummaryOutbox(p for p in range(MESH) if p != node_id)
            ),
            _last_contact={},
        )
        for node_id in range(MESH)
    ]
    built = []
    returned = []
    link_send = Link.send
    scheduler.run(until=0.0)
    for index, (gap, source, offsets, count, pending) in enumerate(script):
        scheduler.run(until=scheduler.now + gap)
        sender = senders[source]
        for offset, entries in zip(range(1, MESH), pending):
            if entries:
                sender.policy.outbox.queue_for(
                    (source + offset) % MESH,
                    SummaryUpdate(
                        algorithm="DFT", stream=StreamId.R, version=index,
                        window_size=8, entries=entries, payload=index,
                        full_state=False,
                    ),
                )
        item = StreamTuple(
            stream=StreamId.R if index % 2 else StreamId.S, key=index % 5,
            origin_node=source, arrival_index=index, tuple_id=index,
        )
        destinations = [(source + offset) % MESH for offset in offsets[:count]]
        sent = []

        def counted(link, message):
            sent.append(message)
            return link_send(link, message)

        with mock.patch.object(Link, "send", counted):
            returned.append(
                forward(sender, item, destinations, scheduler.now, 0.0125 * index)
            )
        built.append(len({id(message) for message in sent}))
    scheduler.run()
    hub.sample_tick()
    stats = network.stats
    observed = {
        "log": log,
        "pauses": returned,
        "last_contact": [sender._last_contact for sender in senders],
        "pending": [sender.policy.outbox.peers_with_pending() for sender in senders],
        "tallies": (
            list(stats.messages_by_kind.items()),
            list(stats.bytes_by_kind.items()),
            list(stats.lost_by_kind.items()),
            stats.summary_bytes,
            stats.net_data_bytes,
            stats.summary_entries,
        ),
        "links": network.link_stats(),
        "events": list(hub.events()),
        "hub": (hub.summary(), list(hub.registry.series_rows())),
    }
    return observed, built


lossy_links = st.sets(st.sampled_from(PAIRS), max_size=4)
bounded_links = st.dictionaries(
    st.sampled_from(PAIRS), st.sampled_from([0.004, 0.02]), max_size=4
)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    lossy_links,
    bounded_links,
    st.booleans(),
    fanouts,
)
@settings(max_examples=100, deadline=None)
def test_a_shared_broadcast_equals_one_message_per_copy(
    seed, lossy, bounded, trace, script
):
    ours, _ = broadcast(JoinProcessingNode._forward, seed, lossy, bounded, trace, script)
    theirs, _ = broadcast(reference_forward, seed, lossy, bounded, trace, script)
    assert ours == theirs


def test_a_mixed_broadcast_reaches_every_regime():
    """The fixed case behind the property: shared copies, copies with
    their own updates, losses, sheds and traced ``dst`` / ``node``, each
    shown to occur."""
    rng = np.random.default_rng(5)
    script = [
        (
            float(rng.choice([0.0, 0.002, 0.02])),
            int(rng.integers(MESH)),
            tuple(int(offset) for offset in rng.permutation(range(1, MESH))),
            MESH - 1,
            [int(entries) for entries in rng.choice([0, 0, 1, 8], MESH - 1)],
        )
        for _ in range(60)
    ]
    lossy = {(0, 1), (2, 3)}
    bounded = {(1, 0): 0.004, (3, 2): 0.004}
    ours, built = broadcast(JoinProcessingNode._forward, 3, lossy, bounded, True, script)
    theirs, per_copy = broadcast(reference_forward, 3, lossy, bounded, True, script)
    assert ours == theirs
    assert per_copy == [MESH - 1] * len(script)
    # Fewer objects than copies: the copies without updates shared one.
    assert sum(built) < sum(per_copy)
    assert any(any(pending) for *_, pending in script)
    events = ours["events"]
    assert {event.name for event in events} >= {"net.send", "net.deliver", "net.drop"}
    sent_to = {event.attrs["dst"] for event in events if event.name == "net.send"}
    assert sent_to == set(range(MESH))
    delivered_to = {entry[1] for entry in ours["log"] if entry[0] == "deliver"}
    assert delivered_to == set(range(MESH))
    links = ours["links"]
    assert links[1, 0][4] > 0 and links[3, 2][4] > 0  # sheds
    assert links[0, 1][2] > links[0, 1][4]  # losses in transit
