"""The inbox and inline finishes in whole systems: the wake invariant, the
edges of the run-ahead horizon, and the runs that must never use either
(see :mod:`repro.core.service`)."""

import math

import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    TelemetrySettings,
    WorkloadConfig,
)
from repro.core.service import ServiceProcess, work_kind
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
    message = Message(kind=MessageKind.SUMMARY, source=source, payload=(None, ()))
    assert system.network.send(message, destination) == arrival


def local(index):
    return StreamTuple(
        stream=StreamId.R, key=index + 1, origin_node=0, arrival_index=index
    )


def count_wakes(node):
    """Record the time of every wake ``node``'s process runs from here on:
    on a clean run a wake is the only caller of an input's arrival
    callback, so this wraps the two callbacks before any input or link
    binds them."""
    wakes = []
    for name in ("on_local_arrival", "on_message"):

        def arrive(work, original=getattr(node, name)):
            wakes.append(node.scheduler.now)
            original(work)

        setattr(node, name, arrive)
    return wakes


def served_log(node):
    """Record ``(time, work)`` for every service ``node`` starts: the
    ``arrival_index`` of a local tuple, the kind name of a delivery."""
    log = []
    process = node.service

    def serve(work, original=process.serve):
        label = work.arrival_index if work_kind(work) == "local" else work.kind.name
        log.append((node.scheduler.now, label))
        return original(work)

    process.serve = serve
    return log


def live_wakes(system):
    """Each node's live wake events in the scheduler's heap."""
    node_of = {id(node.service): node.node_id for node in system.nodes}
    wakes = {node.node_id: [] for node in system.nodes}
    for event in system.scheduler._queue:
        callback = event.callback
        if (
            not event.cancelled
            and getattr(callback, "__func__", None) is ServiceProcess._wake_up
        ):
            wakes[node_of[id(callback.__self__)]].append(event)
    return wakes


def test_an_idle_node_has_one_wake_at_its_inbox_head():
    """After every event of a clean run: an idle node with inputs waiting
    has exactly one live wake, at its inbox head's time and key; a busy
    node has none; and every inbox is empty once the run drains."""
    config = base_config(
        num_nodes=8,
        workload=WorkloadConfig(total_tuples=500, domain=64, arrival_rate=250.0),
    )
    system = DistributedJoinSystem(config)
    system.schedule_workload()
    scheduler = system.scheduler
    idle_waiting = 0
    while scheduler.pending:
        scheduler.run(max_events=1)
        wakes = live_wakes(system)
        for node in system.nodes:
            process = node.service
            if process.busy or not process.inbox:
                assert wakes[node.node_id] == []
                continue
            (wake,) = wakes[node.node_id]
            assert wake is process.wake
            time, phase, rank, seq, _, _ = process.inbox[0]
            assert (wake.time, wake.phase) == (time, phase)
            if phase:
                assert (wake.rank, wake.seq) == (rank, seq)
            idle_waiting += 1
    assert idle_waiting > 0
    assert all(
        not node.service.inbox and node.service.wake is None for node in system.nodes
    )
    assert sum(node.service.inputs_merged for node in system.nodes) > 0
    assert scheduler.inlined > 0


@pytest.mark.usefixtures("zero_latency")
@pytest.mark.parametrize("handed", ["delivery", "direct"])
def test_a_new_head_cancels_the_pending_wake(handed):
    """An earlier delivery, or a tuple handed straight to the idle node,
    takes over from the pending wake.  The stale wake would otherwise
    fire beside the one the node schedules when it goes idle again, for
    an input already served."""
    system = DistributedJoinSystem(base_config(num_nodes=3))
    node = system.nodes[0]
    log = served_log(node)
    deliver_at(system, 1, 0, 0.5)
    process = node.service
    first = process.wake
    assert first.time == 0.5
    if handed == "delivery":
        deliver_at(system, 2, 0, 0.25)
        assert process.wake.time == 0.25
    else:
        node.on_local_arrival(local(0))
        assert process.wake is None
    assert first.cancelled
    system.scheduler.run()
    assert [time for time, _ in log] == [0.0 if handed == "direct" else 0.25, 0.5]
    assert process.wake is None and not process.inbox


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


def run_without_inbox(config):
    system = DistributedJoinSystem(config)
    for node in system.nodes:
        node.service.uses_inbox = False
    return system, system.run()


@pytest.mark.parametrize("subsystem", sorted(OPTIONAL_SUBSYSTEMS))
def test_a_run_with_an_optional_subsystem_holds_nothing(subsystem, tmp_path):
    """No inbox and no serving ahead: both paths need the same predicate."""
    config = base_config(**OPTIONAL_SUBSYSTEMS[subsystem])
    system = DistributedJoinSystem(config)
    system.schedule_workload()
    assert not any(node.service.inbox for node in system.nodes)
    assert not any(node.service.runs_ahead for node in system.nodes)
    result = system.run()
    assert sum(node.service.inputs_merged for node in system.nodes) == 0
    assert system.scheduler.inlined == 0
    reference, reference_result = run_without_inbox(config)
    assert result == reference_result
    assert system.scheduler.events_processed == reference.scheduler.events_processed
    if system.telemetry is not None:
        exported = export_prometheus(system.telemetry, tmp_path / "inbox.prom")
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
    node.service.runs_ahead = node.service.uses_inbox
    assert node.service.runs_ahead
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


def deliver_exactly(system, source, arrival):
    """Send node 0 a summary-only message arriving at exactly ``arrival``
    over links of exactly 0.5 s: ``free + 0.5 == arrival``, both
    differences Sterbenz-exact."""
    link = system.network.link(source, 0)
    link._free_at = arrival - 0.5
    message = Message(kind=MessageKind.SUMMARY, source=source, payload=(None, ()))
    assert system.network.send(message, 0) == arrival


@pytest.mark.parametrize("exactly", [True, False])
def test_a_local_arrival_at_exactly_the_finish_is_merged_at_it(
    monkeypatch, exactly
):
    """Phase 0 sorts first: a local arrival at exactly a finish enters the
    queue at that finish, ahead of a delivery at the same instant, and
    the node serves on inline.  One just after the finish waits for the
    delivery's wake and is merged at that delivery's finish."""
    service = local_service_seconds()
    latency(monkeypatch, 0.5)
    system, node = running_ahead()
    wakes = count_wakes(node)
    start = 0.75
    finish = start + service
    node.schedule_local_arrival(start, local(0))
    node.schedule_local_arrival(
        finish if exactly else math.nextafter(finish, math.inf), local(1)
    )
    deliver_exactly(system, 1, finish)
    log = served_log(node)
    system.scheduler.run()
    assert log[1][0] == finish
    if exactly:
        assert [label for _, label in log] == [0, 1, "SUMMARY"]
        assert wakes == [start]
        assert node.service.inputs_merged == 2
    else:
        assert [label for _, label in log] == [0, "SUMMARY", 1]
        assert wakes == [start, finish]
        assert node.service.inputs_merged == 1
    # Only node 0 runs ahead: these are its three finishes.
    assert system.scheduler.inlined == 3


@pytest.mark.parametrize("exactly, merged", [(True, False), (False, True)])
def test_a_delivery_at_exactly_the_finish_does_not_stop_the_loop(
    monkeypatch, exactly, merged
):
    """A delivery at exactly a finish sorts after it (node ranks sort
    below link ranks): the finish is inline, the node goes idle and a
    wake serves the delivery.  One just before the finish is merged at
    it.  Either way the delivery is served at the finish's instant."""
    service = local_service_seconds()
    latency(monkeypatch, 0.5)
    system, node = running_ahead()
    wakes = count_wakes(node)
    start = 0.75
    finish = start + service
    node.schedule_local_arrival(start, local(0))
    deliver_exactly(system, 1, finish if exactly else math.nextafter(finish, 0.0))
    log = served_log(node)
    system.scheduler.run()
    assert log == [(start, 0), (finish, "SUMMARY")]
    assert node.service.inputs_merged == int(merged)
    assert wakes == ([start] if merged else [start, finish])
    assert system.scheduler.inlined == 2


def test_a_node_takes_its_local_arrivals_in_time_order():
    """Arrivals handed over out of time order are served in key order
    ``(time, arrival_index)``; each new head cancels the pending wake."""
    system, node = running_ahead()
    node.schedule_local_arrival(0.5, local(2))
    node.schedule_local_arrival(0.25, local(0))
    node.schedule_local_arrival(0.5, local(1))
    log = served_log(node)
    system.scheduler.run()
    assert log[0] == (0.25, 0)
    assert [label for _, label in log] == [0, 1, 2]
    assert log[1][0] == 0.5


@pytest.mark.usefixtures("zero_latency")
def test_zero_latency_inlines_nothing():
    system = DistributedJoinSystem(base_config())
    system.run()
    assert all(node.service.runs_ahead for node in system.nodes)
    assert sum(node.service.inputs_merged for node in system.nodes) > 0
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
