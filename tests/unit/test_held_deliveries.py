"""Held deliveries: the horizon bound, the idle invariant, and the runs
that must never hold (see ``JoinProcessingNode.hold``)."""

import math

import pytest

from repro import config as testbed
from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    TelemetrySettings,
    WorkloadConfig,
)
from repro.core.system import DistributedJoinSystem
from repro.net.faults import FaultPlan
from repro.net.message import Message, MessageKind
from repro.net.reliable import ReliabilitySettings
from repro.overload import OverloadSettings
from repro.recovery import RecoverySettings
from repro.streams.tuples import StreamId, StreamTuple
from repro.telemetry.exporters import export_prometheus


def base_config(**overrides):
    fields = dict(
        num_nodes=4,
        window_size=32,
        policy=PolicyConfig(algorithm=Algorithm.BASE, kappa=4.0),
        workload=WorkloadConfig(total_tuples=400, domain=64, arrival_rate=300.0),
        seed=5,
    )
    fields.update(overrides)
    return SystemConfig(**fields)


def deliver_at(system, source, destination, arrival):
    """Send a summary-only message that arrives at exactly ``arrival``.

    Under ``zero_latency`` and the default infinite bandwidth a send
    arrives when its link is free, so the link's free time sets it."""
    link = system.network.link(source, destination)
    link._free_at = arrival
    message = Message(
        kind=MessageKind.SUMMARY,
        source=source,
        destination=destination,
        payload=(None, ()),
    )
    assert system.network.send(message) == arrival


def pending_finish(system, node):
    """The node's scheduled service finish."""
    (finish,) = [
        event
        for event in system.scheduler._queue
        if event.phase == 1 and event.rank == node.node_id
    ]
    return finish


def local(index):
    return StreamTuple(
        stream=StreamId.R, key=index + 1, origin_node=0, arrival_index=index
    )


@pytest.mark.usefixtures("zero_latency")
def test_a_delivery_just_below_the_horizon_is_held_and_one_at_it_is_not():
    system = DistributedJoinSystem(base_config(num_nodes=3))
    node = system.nodes[0]
    node.on_local_arrival(local(0))  # in service, nothing queued
    horizon = node.hold_until
    assert horizon == pending_finish(system, node).time
    # At the finish instant the finish fires first (node ranks sort before
    # link ranks) and leaves the node idle, so that arrival is an event.
    deliver_at(system, 2, 0, horizon)
    assert node.held_deliveries == 0
    deliver_at(system, 1, 0, math.nextafter(horizon, 0.0))
    assert node.held_deliveries == 1
    system.scheduler.run()
    assert not node._held
    assert node.tuples_processed == 1


@pytest.mark.usefixtures("zero_latency")
def test_the_horizon_counts_the_queue_at_service_start():
    system = DistributedJoinSystem(base_config(num_nodes=3))
    node = system.nodes[0]
    for index in range(3):
        node.on_local_arrival(local(index))
    first = pending_finish(system, node)
    assert node.hold_until == first.time  # queued after the start
    system.scheduler.run(until=first.time)
    second = pending_finish(system, node)
    assert node.queue_depth == 1
    assert node.hold_until == second.time + node._hold_step
    # The queued tuple is served for at least the step, so an arrival past
    # the current finish but before the bound still lands busy.
    deliver_at(system, 1, 0, second.time + node._hold_step / 2)
    assert node.held_deliveries == 1
    system.scheduler.run()
    assert not node._held
    assert node.tuples_processed == 3


@pytest.mark.usefixtures("zero_latency")
def test_an_arrival_at_the_end_of_the_busy_period_is_not_held():
    """Queued summaries are served for exactly ``CPU_SECONDS_PER_PROBE``
    each, so with k of them queued at a service start finishing at ``F``
    the busy period ends at ``F + k * probe``; a delivery arriving then
    finds the node idle, and holding it would strand it."""
    system = DistributedJoinSystem(base_config(num_nodes=3))
    node = system.nodes[0]
    node.on_local_arrival(local(0))
    for _ in range(21):
        node.on_message(
            Message(
                kind=MessageKind.SUMMARY, source=1, destination=0, payload=(None, ())
            )
        )
    system.scheduler.run(until=pending_finish(system, node).time)
    assert node.queue_depth == 20
    busy_end = pending_finish(system, node).time + 20 * testbed.CPU_SECONDS_PER_PROBE
    assert node.hold_until < busy_end
    deliver_at(system, 2, 0, busy_end)
    assert node.held_deliveries == 0
    system.scheduler.run()
    assert not node._held
    assert node.busy_seconds == pytest.approx(
        busy_end + testbed.CPU_SECONDS_PER_PROBE
    )


def test_an_idle_node_holds_nothing():
    config = base_config(
        num_nodes=8,
        workload=WorkloadConfig(total_tuples=500, domain=64, arrival_rate=250.0),
    )
    system = DistributedJoinSystem(config)
    system.schedule_workload()
    scheduler = system.scheduler
    while scheduler.pending:
        scheduler.run(max_events=1)
        for node in system.nodes:
            if not node._busy:
                assert not node._held
                assert node.hold_until <= scheduler.now
    system.run()
    assert sum(node.held_deliveries for node in system.nodes) > 0
    assert all(not node._held for node in system.nodes)


OPTIONAL_SUBSYSTEMS = {
    "telemetry": dict(telemetry=TelemetrySettings(enabled=True)),
    "faults": dict(faults=FaultPlan.parse("loss@t=0.3,d=0.5,p=0.2", num_nodes=4)),
    "reliability": dict(reliability=ReliabilitySettings(enabled=True)),
    "recovery": dict(
        reliability=ReliabilitySettings(enabled=True),
        recovery=RecoverySettings(enabled=True),
    ),
    "overload": dict(overload=OverloadSettings.for_queue_bound(64)),
}


def run_without_holders(config):
    system = DistributedJoinSystem(config)
    for node in system.nodes:
        node.takes_held_deliveries = False
    return system, system.run()


@pytest.mark.parametrize("subsystem", sorted(OPTIONAL_SUBSYSTEMS))
def test_a_run_with_an_optional_subsystem_holds_nothing(subsystem, tmp_path):
    config = base_config(**OPTIONAL_SUBSYSTEMS[subsystem])
    system = DistributedJoinSystem(config)
    result = system.run()
    assert all(link.holder is None for _, link in system.network.iter_links())
    assert sum(node.held_deliveries for node in system.nodes) == 0
    reference, reference_result = run_without_holders(config)
    assert result == reference_result
    assert system.scheduler.events_processed == reference.scheduler.events_processed
    if system.telemetry is not None:
        exported = export_prometheus(system.telemetry, tmp_path / "held.prom")
        expected = export_prometheus(reference.telemetry, tmp_path / "event.prom")
        assert exported.read_bytes() == expected.read_bytes()
