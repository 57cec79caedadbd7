"""Property-based tests for the WAN link model (paper Section 6).

The testbed imposes 20-100 ms of latency on every message; the model
draws propagation from ``[LATENCY_MIN_S, LATENCY_MAX_S]`` and lets
serialization and FIFO backlog only add to it.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import link as link_module
from repro.net.link import Link, LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventKeySource, EventScheduler
from tests.ingress import event_ingress

link_specs = st.builds(LinkSpec, bandwidth_bps=st.floats(min_value=1e3, max_value=1e9))
latency_floors = st.floats(min_value=1e-4, max_value=0.5)
latency_ceilings = st.floats(min_value=0.5, max_value=2.0)

send_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),  # send time
        st.integers(min_value=0, max_value=64),  # piggy-backed entries
    ),
    min_size=1,
    max_size=30,
)


@given(
    spec=link_specs,
    plan=send_plans,
    seed=st.integers(0, 2**32 - 1),
    low=latency_floors,
    high=latency_ceilings,
)
@settings(max_examples=60, deadline=None)
def test_arrival_is_never_sooner_than_the_latency_floor(spec, plan, seed, low, high):
    """arrival >= send + latency_min on every link, whatever the traffic.

    Sampled propagation lies in [latency_min, latency_max] and both
    serialization and FIFO backlog only add delay, so the minimum
    latency is a true lower bound on every message's transit time.
    """
    spec.validate()
    scheduler = EventScheduler()
    link = Link(
        scheduler,
        spec,
        deliver=lambda message: None,
        take=event_ingress(scheduler),
        key_source=EventKeySource(0),
        rng=np.random.default_rng(seed),
    )
    with mock.patch.multiple(link_module, LATENCY_MIN_S=low, LATENCY_MAX_S=high):
        for send_time, entries in sorted(plan):
            scheduler.now = send_time
            message = Message(
                kind=MessageKind.TUPLE,
                source=0,
                summary_entries=entries,
            )
            arrival = link.send(message)
            assert arrival >= send_time + low
