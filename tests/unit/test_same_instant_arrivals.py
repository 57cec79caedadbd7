"""Unit tests for local arrivals that share one simulated instant.

Nothing coalesces them: the node services them one after the other, in
the order they reach it -- hand-delivered here through
``on_local_arrival``, or scheduled in index order by ``schedule_workload``.
"""

from repro import config as testbed
from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    TelemetrySettings,
    WorkloadConfig,
)
from repro.core.service import work_kind
from repro.core.system import DistributedJoinSystem
from repro.streams.tuples import StreamId, StreamTuple


def small_config(algorithm=Algorithm.DFTT, **overrides):
    defaults = dict(
        num_nodes=3,
        window_size=64,
        policy=PolicyConfig(algorithm=algorithm, kappa=4.0),
        workload=WorkloadConfig(total_tuples=600, domain=256, arrival_rate=200.0),
        seed=5,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def make_tuples(node_id, keys, stream=StreamId.R, start_index=0):
    return tuple(
        StreamTuple(
            stream=stream,
            key=int(key),
            origin_node=node_id,
            arrival_index=start_index + offset,
        )
        for offset, key in enumerate(keys)
    )


def deliver_at_one_instant(system, node, items):
    """Hand every tuple to the node before the simulated clock moves."""
    start = system.scheduler.now
    for item in items:
        node.on_local_arrival(item)
    assert system.scheduler.now == start
    system.scheduler.run()


def test_same_instant_arrivals_are_ingested_and_serviced():
    system = DistributedJoinSystem(small_config())
    node = system.nodes[0]
    items = make_tuples(0, [3, 7, 3, 11, 7])
    deliver_at_one_instant(system, node, items)
    assert node.tuples_processed == len(items)
    assert node.policy.tuples_seen == len(items)
    window = node.join.window(StreamId.R)
    assert sorted(t.key for t in window) == [3, 3, 7, 7, 11]
    assert [t.arrival_index for t in window] == [0, 1, 2, 3, 4]
    system._replay_accounting()
    assert system.oracle.tuples_observed == len(items)


def test_same_instant_service_time_is_per_tuple():
    config = small_config()
    system = DistributedJoinSystem(config)
    node = system.nodes[0]
    items = make_tuples(0, list(range(8)))
    deliver_at_one_instant(system, node, items)
    assert node.busy_seconds >= len(items) * testbed.CPU_SECONDS_PER_TUPLE
    # One after the other: each service starts when the previous one ends.
    stamps = [t.timestamp for t in node.join.window(StreamId.R)]
    for position, stamp in enumerate(stamps):
        assert stamp >= position * testbed.CPU_SECONDS_PER_TUPLE
    assert stamps == sorted(set(stamps))


def test_same_instant_matches_produce_results():
    """An R and an S tuple with the same key arriving together join."""
    system = DistributedJoinSystem(small_config(algorithm=Algorithm.BASE))
    node = system.nodes[0]
    r = make_tuples(0, [42], stream=StreamId.R, start_index=0)
    s = make_tuples(0, [42], stream=StreamId.S, start_index=1)
    deliver_at_one_instant(system, node, r + s)
    system._replay_accounting()
    assert system.collector.reported_pairs == 1


def served_local_indices(system):
    """Per node, the ``arrival_index`` of every local tuple it serves."""
    served = {node.node_id: [] for node in system.nodes}
    for node in system.nodes:
        process = node.service

        def serve(work, log=served[node.node_id], original=process.serve):
            if work_kind(work) == "local":
                log.append(work.arrival_index)
            return original(work)

        process.serve = serve
    return served


def test_schedule_workload_enqueues_one_event_per_tuple():
    """A clean run keeps each arrival as an inbox entry, not an event;
    with telemetry on, each is its own phase-0 event.  Either way every
    tuple reaches its node once, in index order."""
    for telemetry in (False, True):
        config = small_config(
            algorithm=Algorithm.BASE,
            telemetry=TelemetrySettings(enabled=telemetry),
        )
        total = config.workload.total_tuples
        system = DistributedJoinSystem(config)
        # Arrivals are then the only inputs this plain BASE run schedules.
        system.disseminate_query = lambda: None
        system._schedule_telemetry_sampling = lambda: None
        served = served_local_indices(system)
        before = system.scheduler.pending
        system.schedule_workload()
        entries = sum(len(node.service.inbox) for node in system.nodes)
        if telemetry:
            assert entries == 0
            assert system.scheduler.pending - before == total
        else:
            assert entries == total
            # One wake per node.
            assert system.scheduler.pending - before == len(system.nodes)
        system.scheduler.run()
        assert all(log == sorted(log) for log in served.values())
        assert sorted(sum(served.values(), [])) == list(range(total))
