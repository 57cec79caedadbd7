"""The inline send tally equals the per-message ``record`` fold.

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
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventScheduler
from repro.net.topology import Network
from tests.ingress import Sink
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
        message = Message(
            kind=KINDS[kind], source=source,
            destination=(source + offset) % NODES, summary_entries=entries,
        )
        index_of[id(message)] = index
        returned.append(send(network, message))
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
