"""Message conservation over a whole run, through every way a message dies.

A small reliable run with a loss burst, a partition, a restartable crash
and a bounded link backlog.  At drain every message the network sent was
either delivered or dropped, per kind and per link, and the telemetry
events that say so agree with the traffic tallies the result reports.
Its twin without message events holds the hub's counters -- read from
those tallies at the sampling ticks -- to the same books.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    TelemetrySettings,
    WorkloadConfig,
)
from repro.core.system import DistributedJoinSystem
from repro.net.faults import FaultPlan
from repro.net.link import LinkSpec
from repro.net.reliable import ReliabilitySettings
from repro.net.stats import TrafficStats
from repro.net.topology import Network
from repro.overload import OverloadSettings
from repro.recovery import RecoverySettings

NUM_NODES = 4
FAULTS = (
    "loss@t=1,d=2,p=0.3; partition@t=3,d=2.5,nodes=0; "
    "crash@t=6,d=1.5,node=3,downtime=1.5"
)


def config(trace_messages=True):
    return SystemConfig(
        num_nodes=NUM_NODES,
        window_size=64,
        policy=PolicyConfig(algorithm=Algorithm.BLOOM, kappa=4.0),
        workload=WorkloadConfig(total_tuples=1200, domain=256, arrival_rate=150.0),
        link=LinkSpec(),  # 90 kbps, so sends queue behind each other
        faults=FaultPlan.parse(FAULTS, num_nodes=NUM_NODES),
        reliability=ReliabilitySettings(enabled=True),
        recovery=RecoverySettings(enabled=True),
        overload=OverloadSettings.for_queue_bound(64, link_backlog_bound_s=0.01),
        telemetry=TelemetrySettings(enabled=True, trace_messages=trace_messages),
        seed=3,
    )


@pytest.fixture(scope="module")
def run():
    """The run, with every ``Network.send`` and every loss tally counted:
    calls, and per kind the messages, bytes and summary entries sent."""
    calls = Counter()
    sent = {"messages": Counter(), "bytes": Counter(), "entries": 0}
    send, record_loss = Network.send, TrafficStats.record_loss

    def counted_send(self, message, destination):
        calls["send"] += 1
        sent["messages"][message.kind.value] += 1
        sent["bytes"][message.kind.value] += message.wire_bytes
        sent["entries"] += message.summary_entries
        return send(self, message, destination)

    def counted_loss(self, message):
        calls["record_loss"] += 1
        return record_loss(self, message)

    with mock.patch.object(Network, "send", counted_send), mock.patch.object(
        TrafficStats, "record_loss", counted_loss
    ):
        system = DistributedJoinSystem(config())
        result = system.run()
    outcomes = {"net.send": Counter(), "net.deliver": Counter(), "net.drop": Counter()}
    for event in system.telemetry.events():
        if event.name == "net.deliver":
            outcomes[event.name][event.attrs["src"], event.node, event.attrs["kind"]] += 1
        elif event.name in outcomes:
            outcomes[event.name][event.node, event.attrs["dst"], event.attrs["kind"]] += 1
    return system, result, calls, sent, outcomes


def by(outcome, key):
    """Collapse ``(source, destination, kind)`` counts onto ``key``."""
    collapsed = Counter()
    for triple, count in outcome.items():
        collapsed[key(triple)] += count
    return collapsed


def test_the_run_crossed_every_way_a_message_dies(run):
    _, result, _, _, outcomes = run
    assert result.telemetry["events_dropped"] == 0  # the trace is complete
    assert result.faults["messages_blocked"] > 0  # burst and partition
    assert result.overload["link_messages_shed"] > 0  # backlog bound
    assert result.recovery["restarts"] == 1
    assert result.retransmits > 0
    assert sum(outcomes["net.drop"].values()) > result.overload["link_messages_shed"]


def test_every_send_is_delivered_or_dropped_per_kind_and_link(run):
    _, _, _, _, outcomes = run
    assert outcomes["net.send"] == outcomes["net.deliver"] + outcomes["net.drop"]


def test_events_equal_the_traffic_tallies(run):
    system, result, _, _, outcomes = run
    kind = lambda triple: triple[2]
    link = lambda triple: triple[:2]
    assert by(outcomes["net.send"], kind) == result.messages_by_kind
    assert by(outcomes["net.drop"], kind) == system.network.stats.lost_by_kind
    link_stats = system.network.link_stats()
    assert by(outcomes["net.send"], link) == {
        pair: sent + shed for pair, (sent, _, _, _, shed) in link_stats.items()
    }
    assert by(outcomes["net.drop"], link) == {
        pair: lost for pair, (_, _, lost, _, _) in link_stats.items() if lost
    }


def test_one_traffic_tally_per_message(run):
    """Count gate: the network tallies each sent and each lost message
    once, in ``Network.stats``, and nowhere else.  ``Network.send`` tallies
    inline, so the stats must equal what its calls carried: a second tally
    doubles them, a send that skips the tally falls short."""
    system, _, calls, sent, outcomes = run
    stats = system.network.stats
    assert calls["send"] == sum(outcomes["net.send"].values()) > 0
    assert stats.messages_by_kind == sent["messages"]
    assert stats.bytes_by_kind == sent["bytes"]
    assert stats.summary_entries == sent["entries"] > 0
    assert stats.summary_bytes + stats.net_data_bytes == stats.total_bytes
    assert calls["record_loss"] == sum(outcomes["net.drop"].values()) > 0
    assert calls["record_loss"] == stats.messages_lost


@pytest.fixture(scope="module")
def untraced():
    """The same run without message events, with every delivery the
    network hands to its observer counted per kind."""
    delivered = Counter()
    record_delivery = Network._record_delivery

    def counted_delivery(self, message, destination):
        delivered[message.kind_name] += 1
        return record_delivery(self, message, destination)

    with mock.patch.object(Network, "_record_delivery", counted_delivery):
        system = DistributedJoinSystem(config(trace_messages=False))
        result = system.run()
    return system, result, delivered


def family(registry, name):
    """One counter family as ``{label values: count}``."""
    return Counter(
        {
            tuple(value for _, value in instrument.labels): int(instrument.value)
            for instrument in registry.instruments()
            if instrument.name == name
        }
    )


def test_untraced_counters_equal_the_tallies_at_drain(untraced, run):
    """Sends, bytes and losses per kind and sends per link are read from
    the network's tallies at the ticks, deliveries counted as they
    happen; at drain each equals the books it mirrors, and the books
    balance."""
    system, result, delivered = untraced
    traced_system, _, _, _, outcomes = run
    registry, stats = system.telemetry.registry, system.network.stats
    per_kind = lambda name: Counter(
        {labels[0]: count for labels, count in family(registry, name).items()}
    )
    assert result.telemetry.get("events_net", 0) == 0
    assert per_kind("repro_net_messages_total") == stats.messages_by_kind
    assert per_kind("repro_net_bytes_total") == stats.bytes_by_kind
    assert per_kind("repro_net_lost_total") == stats.lost_by_kind
    assert per_kind("repro_net_delivered_total") == delivered
    links = {
        (int(source), int(destination)): count
        for (destination, source), count in family(
            registry, "repro_link_messages_total"
        ).items()
    }
    assert links == {
        pair: sent + shed
        for pair, (sent, _, _, _, shed) in system.network.link_stats().items()
        if sent + shed
    }
    assert stats.messages_by_kind == delivered + stats.lost_by_kind
    assert sum(stats.bytes_by_kind.values()) == result.traffic["total_bytes"] > 0
    # Message events change no traffic: the twin's books are the traced
    # run's, and its delivered counters are the traced deliveries.
    assert stats == traced_system.network.stats
    assert delivered == by(outcomes["net.deliver"], lambda triple: triple[2])
