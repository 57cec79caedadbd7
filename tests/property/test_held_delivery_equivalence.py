"""The inbox and inline finishes change the event count and nothing
else.

On a clean run every input of a node waits in one keyed heap, merged
into the service queue at the node's finishes or served by one wake
while it is idle, and a busy node serves a finish before the links'
minimum latency inside the event being executed (see
:mod:`repro.core.service`).  Each clean configuration below runs twice:
as is, and with both switched off here by clearing every node's
``service.uses_inbox`` before any input.  The two
runs must give equal results, serve the same work in the same order at
the same instants, and differ in events processed by exactly the inputs
merged plus the finishes inlined.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WindowKind,
    WorkloadConfig,
)
from repro.core.service import work_kind
from repro.core.system import DistributedJoinSystem

WINDOWS = {
    "count": {},
    "time": {"window_kind": WindowKind.TIME, "window_seconds": 0.4},
    "landmark": {"window_kind": WindowKind.LANDMARK, "landmark_key": 1},
}


def make_config(algorithm, nodes, window, rate, seed, tuples=300):
    return SystemConfig(
        num_nodes=nodes,
        window_size=32,
        policy=PolicyConfig(algorithm=algorithm, kappa=4.0),
        workload=WorkloadConfig(total_tuples=tuples, domain=64, arrival_rate=rate),
        seed=seed,
        **WINDOWS[window],
    )


def signature(work):
    """What a service works on, comparable across two runs."""
    if work_kind(work) == "local":
        return ("local", work.arrival_index)
    item, updates = work.payload
    return (
        "message",
        work.kind.name,
        work.source,
        None if item is None else (item.origin_node, item.arrival_index),
        len(updates),
    )


def run(config, inbox):
    """Run ``config``; return the system, its result and, per node, the
    ``(time, work)`` sequence it served."""
    system = DistributedJoinSystem(config)
    served = {}
    for node in system.nodes:
        process = node.service
        if not inbox:
            process.uses_inbox = False
        log = served[node.node_id] = []

        def serve(work, node=node, log=log, original=process.serve):
            log.append((node.scheduler.now, signature(work)))
            return original(work)

        process.serve = serve
    result = system.run()
    return system, result, served


def merged(system):
    return sum(node.service.inputs_merged for node in system.nodes)


def assert_equivalent(config):
    on, result_on, served_on = run(config, inbox=True)
    off, result_off, served_off = run(config, inbox=False)
    assert merged(off) == 0
    assert off.scheduler.inlined == 0
    assert result_on == result_off
    assert served_on == served_off
    assert (
        on.scheduler.events_processed + merged(on) + on.scheduler.inlined
        == off.scheduler.events_processed
    )
    assert all(not node.service.inbox for node in on.nodes)
    return on, result_on


configs = st.builds(
    make_config,
    algorithm=st.sampled_from(list(Algorithm)),
    nodes=st.integers(min_value=2, max_value=6),
    window=st.sampled_from(sorted(WINDOWS)),
    rate=st.sampled_from([100.0, 300.0, 900.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)


@given(configs)
@settings(max_examples=15, deadline=None)
def test_holding_changes_only_the_event_count(config):
    assert_equivalent(config)


def test_a_backlogged_base_cell_holds_at_depth():
    """BASE on N = 8 at 250 tuples/s backs every node up (queues reach
    hundreds): most inputs are merged at a finish of their busy node, and
    most service finishes lie inside the links' minimum latency of the
    event that starts them, so fewer than a tenth of the 25,686
    all-events path's events remain."""
    config = make_config(Algorithm.BASE, 8, "count", 250.0, seed=7, tuples=1000)
    system, result = assert_equivalent(config)
    assert system.scheduler.events_processed < 2500
    assert merged(system) > 12000
    assert system.scheduler.inlined > 11000
    assert max(node.max_queue_depth for node in system.nodes) > 500
