"""Held deliveries and inline finishes: their horizons, the idle
invariant, and the runs that must never hold (see
``JoinProcessingNode.hold`` and ``JoinProcessingNode._run_ahead_horizon``)."""

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
from repro.errors import SimulationError
from repro.net import link as wan
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
    """An idle node's ``hold_until`` is at or below its own last finish,
    which an inline finish may put ahead of the scheduler's clock."""
    config = base_config(
        num_nodes=8,
        workload=WorkloadConfig(total_tuples=500, domain=64, arrival_rate=250.0),
    )
    system = DistributedJoinSystem(config)
    last_finish = {}
    for node in system.nodes:
        last_finish[node.node_id] = 0.0

        def dispatch(kind, work, node=node, original=node._dispatch):
            service_time = original(kind, work)
            last_finish[node.node_id] = node.scheduler.now + service_time
            return service_time

        node._dispatch = dispatch
    system.schedule_workload()
    scheduler = system.scheduler
    while scheduler.pending:
        scheduler.run(max_events=1)
        for node in system.nodes:
            if not node._busy:
                assert not node._held
                assert node.hold_until <= last_finish[node.node_id]
    system.run()
    assert sum(node.held_deliveries for node in system.nodes) > 0
    assert scheduler.inlined > 0
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
    """Nor does it serve ahead: both paths need the same predicate."""
    config = base_config(**OPTIONAL_SUBSYSTEMS[subsystem])
    system = DistributedJoinSystem(config)
    result = system.run()
    assert all(link.holder is None for _, link in system.network.iter_links())
    assert sum(node.held_deliveries for node in system.nodes) == 0
    assert not any(node.runs_ahead for node in system.nodes)
    assert system.scheduler.inlined == 0
    reference, reference_result = run_without_holders(config)
    assert result == reference_result
    assert system.scheduler.events_processed == reference.scheduler.events_processed
    if system.telemetry is not None:
        exported = export_prometheus(system.telemetry, tmp_path / "held.prom")
        expected = export_prometheus(reference.telemetry, tmp_path / "event.prom")
        assert exported.read_bytes() == expected.read_bytes()


# --- inline finishes ---------------------------------------------------------


def latency(monkeypatch, seconds):
    """Every link delivers after exactly ``seconds`` of propagation."""
    monkeypatch.setattr(wan, "LATENCY_MIN_S", seconds)
    monkeypatch.setattr(wan, "LATENCY_MAX_S", seconds)


def local_service_seconds():
    """How long node 0 of a 3-node BASE system serves ``local(0)``."""
    system = DistributedJoinSystem(base_config(num_nodes=3))
    node = system.nodes[0]
    node.on_local_arrival(local(0))
    return node.busy_seconds


def running_ahead(num_nodes=3):
    """A BASE system whose node 0 serves ahead, with no workload of its own."""
    system = DistributedJoinSystem(base_config(num_nodes=num_nodes))
    node = system.nodes[0]
    node.runs_ahead = system.network.holds_for(node)
    assert node.runs_ahead
    return system, node


def finish_is_an_event(system, node):
    """Run the first event; report whether the service it started left a
    scheduled finish (``False``: the finish was served inline)."""
    system.scheduler.run(max_events=1)
    assert node.tuples_processed == 1
    scheduled = [
        event
        for event in system.scheduler._queue
        if event.phase == 1 and event.rank == node.node_id
    ]
    assert len(scheduled) + system.scheduler.inlined == 1
    return bool(scheduled)


@pytest.mark.parametrize("factor, event", [(1.0, True), (2.0, False)])
def test_a_finish_at_exactly_the_latency_horizon_is_an_event(
    monkeypatch, factor, event
):
    service = local_service_seconds()
    # At factor 1, T + L and T + service are the same rounded sum.
    latency(monkeypatch, service * factor)
    system, node = running_ahead()
    node.schedule_local_arrival(0.5, local(0))
    assert finish_is_an_event(system, node) is event


@pytest.mark.parametrize("exactly, event", [(True, True), (False, False)])
def test_a_local_arrival_at_exactly_the_finish_stops_the_loop(
    monkeypatch, exactly, event
):
    service = local_service_seconds()
    latency(monkeypatch, 0.5)
    system, node = running_ahead()
    start = 0.75
    finish = start + service
    node.schedule_local_arrival(start, local(0))
    node.schedule_local_arrival(
        finish if exactly else math.nextafter(finish, math.inf), local(1)
    )
    assert finish_is_an_event(system, node) is event


@pytest.mark.parametrize("exactly, event", [(True, False), (False, True)])
def test_a_delivery_at_exactly_the_finish_does_not_stop_the_loop(
    monkeypatch, exactly, event
):
    service = local_service_seconds()
    latency(monkeypatch, 0.5)
    system, node = running_ahead()
    start = 0.75
    finish = start + service
    node.schedule_local_arrival(start, local(0))
    arrival = finish if exactly else math.nextafter(finish, 0.0)
    # free + 0.5 == arrival exactly: both differences are Sterbenz-exact.
    link = system.network.link(1, 0)
    link._free_at = arrival - 0.5
    message = Message(
        kind=MessageKind.SUMMARY, source=1, destination=0, payload=(None, ())
    )
    assert system.network.send(message) == arrival
    assert node._expected == [arrival]
    assert finish_is_an_event(system, node) is event
    system.scheduler.run()
    assert node._expected == []


def test_a_node_takes_its_local_arrivals_in_time_order():
    """The deque's head is the next arrival only if the times ascend."""
    system, node = running_ahead()
    node.schedule_local_arrival(0.5, local(0))
    node.schedule_local_arrival(0.5, local(1))
    with pytest.raises(SimulationError, match="scheduled after"):
        node.schedule_local_arrival(0.25, local(2))


@pytest.mark.usefixtures("zero_latency")
def test_zero_latency_inlines_nothing():
    system = DistributedJoinSystem(base_config())
    system.run()
    assert all(node.runs_ahead for node in system.nodes)
    assert sum(node.held_deliveries for node in system.nodes) > 0
    assert system.scheduler.inlined == 0


def test_a_hand_scheduled_arrival_in_the_served_ahead_past_raises(monkeypatch):
    """The nodes know the arrivals ``schedule_workload`` handed them, not
    the extra ones scheduled here just after the first: the first
    arrival's node serves that tuple ahead past its extra arrival, which
    must not then be served late."""
    latency(monkeypatch, 1.0)
    system = DistributedJoinSystem(
        base_config(
            num_nodes=2,
            workload=WorkloadConfig(total_tuples=4, domain=64, arrival_rate=1.0),
        )
    )
    system.schedule_workload()
    scheduler = system.scheduler
    first = min(event.time for event in scheduler._queue if event.phase == 0)
    for node in system.nodes:
        extra = StreamTuple(
            stream=StreamId.S, key=1, origin_node=node.node_id, arrival_index=99
        )
        scheduler.schedule_at(
            math.nextafter(first, math.inf),
            lambda node=node, extra=extra: node.on_local_arrival(extra),
        )
    with pytest.raises(SimulationError, match="serving ahead"):
        scheduler.run()
