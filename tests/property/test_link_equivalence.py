"""The block-drawing link equals the one-scalar-call-per-draw link.

PR 20 takes a link's jitter and loss doubles from its generator a block
at a time.  That is only admissible because it changes *nothing* a run
can see: every assertion here is ``==`` against
``tests/reference_link.py`` (the pre-change link), never ``approx``.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import link as link_module
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.link import DRAW_BLOCK, Link, LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventKeySource, EventScheduler
from tests.ingress import event_ingress
from tests.reference_link import ReferenceLink

KINDS = list(MessageKind)

# A loss burst that switches on and off twice and a latency spike across
# the second switch, on the link under test (0 -> 1); sends are 0-0.4 s
# apart, so a sequence of a few dozen crosses every edge.
FAULTS = (
    "loss@t=1,d=1.5,p=0.4,link=0-1; loss@t=4,d=2,p=0.7; "
    "latency@t=3.5,d=1,extra=0.25,link=0-1"
)

specs = st.builds(LinkSpec, loss_probability=st.sampled_from([0.0, 0.0, 0.3]))
latencies = st.tuples(st.sampled_from([0.0, 0.02]), st.sampled_from([0.02, 0.1, 0.5]))
sends = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.01, 0.1, 0.4]),
        st.integers(min_value=0, max_value=len(KINDS) - 1),
        st.sampled_from([0, 0, 1, 8, 40]),
    ),
    max_size=3 * DRAW_BLOCK,
)


def latency_range(low, high):
    """Every link's propagation range, inside the ``with`` block."""
    return mock.patch.multiple(link_module, LATENCY_MIN_S=low, LATENCY_MAX_S=high)


def drive(link_class, spec, seed, faults, backlog_bound_s, script):
    """Send ``script`` over one fresh link; return everything observable."""
    scheduler = EventScheduler()
    injector = None
    if faults:
        injector = FaultInjector(FaultPlan.parse(FAULTS, 2), 2)
        injector.install(scheduler)
    delivered, dropped = [], []
    index_of = {}
    # The reference predates the receiver's ingress.
    ingress = {"take": event_ingress(scheduler)} if link_class is Link else {}
    link = link_class(
        scheduler,
        spec,
        deliver=lambda message: delivered.append((index_of[id(message)], scheduler.now)),
        **ingress,
        key_source=EventKeySource(3),
        rng=np.random.default_rng(seed),
        endpoints=(0, 1),
        fault_injector=injector,
        # ``Link`` also passes its endpoint; the reference predates that.
        on_drop=lambda message, *_: dropped.append(index_of[id(message)]),
    )
    link.backlog_bound_s = backlog_bound_s
    messages = []  # kept alive so ids stay unique
    returned = []
    for index, (gap, kind, entries) in enumerate(script):
        scheduler.run(until=scheduler.now + gap)
        message = Message(kind=KINDS[kind], source=0, summary_entries=entries)
        messages.append(message)
        index_of[id(message)] = index
        returned.append(link.send(message))
    scheduler.run()
    counters = (
        link.messages_sent,
        link.bytes_sent,
        link.messages_lost,
        link.bytes_lost,
        link.messages_shed,
        link._free_at,
    )
    return returned, delivered, dropped, counters


@given(
    specs,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.sampled_from([0.0, 0.0, 0.02, 0.2]),
    sends,
    latencies,
)
@settings(max_examples=150, deadline=None)
def test_link_equals_the_scalar_draw_reference(
    spec, seed, faults, bound, script, latency
):
    """Static loss, a loss burst switching mid-sequence, a backlog bound
    that sheds (no draw consumed) and ``LATENCY_MIN_S == LATENCY_MAX_S``
    (no jitter draw): same arrival times, same drops, same counters."""
    with latency_range(*latency):
        assert drive(Link, spec, seed, faults, bound, script) == drive(
            ReferenceLink, spec, seed, faults, bound, script
        )


def test_every_regime_is_reached_by_a_long_mixed_sequence():
    """The fixed case behind the property: all four regimes in one sequence,
    and proof that each one actually occurred."""
    spec = LinkSpec(loss_probability=0.2)
    rng = np.random.default_rng(5)
    script = [
        (float(rng.choice([0.0, 0.01, 0.1])), int(rng.integers(len(KINDS))), int(rng.choice([0, 8, 40])))
        for _ in range(10 * DRAW_BLOCK)
    ]
    ours = drive(Link, spec, 99, True, 0.05, script)
    assert ours == drive(ReferenceLink, spec, 99, True, 0.05, script)
    returned, delivered, dropped, counters = ours
    shed = counters[4]
    assert shed > 0 and len(dropped) > shed  # bound sheds, and loss in transit
    assert len(delivered) > 2 * DRAW_BLOCK  # several refills of the block
    with latency_range(0.05, 0.05):
        assert drive(Link, spec, 99, True, 0.0, script) == drive(
            ReferenceLink, spec, 99, True, 0.0, script
        )
