"""Unit tests for the node runtime (small hand-built systems)."""

import dataclasses
import math

import pytest

from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.node import JoinProcessingNode
from repro.core.summaries import SummaryUpdate
from repro.core.policies import PolicyContext, make_policy
from repro.join.ground_truth import GroundTruthOracle
from repro.metrics.accounting import ResultCollector, replay_accounting
from repro.net.link import LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventScheduler
from repro.net.topology import Network
from repro.recovery import RecoveryPhase
from repro.streams.tuples import StreamId, StreamTuple

import numpy as np


def build_pair(algorithm=Algorithm.BASE, window=8, recovery=None, num_nodes=2):
    """Two nodes (or ``num_nodes``) wired through a latency-only network
    (zero latency under the ``zero_latency`` fixture, which every caller
    below uses)."""
    config = SystemConfig(
        num_nodes=num_nodes,
        window_size=window,
        policy=PolicyConfig(algorithm=algorithm, kappa=2.0),
        workload=WorkloadConfig(domain=64),
        link=LinkSpec(bandwidth_bps=math.inf),
    )
    if recovery is not None:
        config = dataclasses.replace(config, recovery=recovery)
    scheduler = EventScheduler()
    network = Network(
        scheduler, num_nodes, spec=config.link, rng=np.random.default_rng(0)
    )
    oracle = GroundTruthOracle()
    collector = ResultCollector()
    nodes = []
    for node_id in range(num_nodes):
        context = PolicyContext(
            node_id=node_id,
            peer_ids=tuple(peer for peer in range(num_nodes) if peer != node_id),
            window_size=window,
            domain=64,
            config=config.policy,
            rng=np.random.default_rng(node_id),
        )
        node = JoinProcessingNode(
            node_id=node_id,
            config=config,
            scheduler=scheduler,
            network=network,
            policy=make_policy(context, {}),
            recovery=recovery,
        )
        network.register(node_id, node)
        nodes.append(node)
    return scheduler, network, oracle, collector, nodes


def make_tuple(stream, key, origin, index=0):
    return StreamTuple(stream=stream, key=key, origin_node=origin, arrival_index=index)


def settle(nodes, oracle, collector):
    """Replay the nodes' deferred accounting (what the system does at collect)."""
    replay_accounting(
        [op for node in nodes for op in node.accounting_ops], oracle, collector
    )


@pytest.mark.usefixtures("zero_latency")
def test_local_join_produces_result():
    scheduler, _, oracle, collector, nodes = build_pair()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 5, 0))
    nodes[0].on_local_arrival(make_tuple(StreamId.S, 5, 0))
    scheduler.run()
    settle(nodes, oracle, collector)
    assert oracle.total_result_pairs == 1
    assert collector.reported_pairs == 1


@pytest.mark.usefixtures("zero_latency")
def test_remote_join_via_forwarded_copy():
    scheduler, _, oracle, collector, nodes = build_pair()
    nodes[1].on_local_arrival(make_tuple(StreamId.S, 9, 1))
    scheduler.run()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 9, 0))
    scheduler.run()
    settle(nodes, oracle, collector)
    # BASE forwards the R tuple to node 1 where it meets the S tuple.
    assert oracle.total_result_pairs == 1
    assert collector.reported_pairs == 1


@pytest.mark.usefixtures("zero_latency")
def test_forwarded_copy_lands_in_the_receivers_shadow_window():
    scheduler, _, oracle, collector, nodes = build_pair()
    nodes[1].on_local_arrival(make_tuple(StreamId.S, 9, 1))
    scheduler.run()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 9, 0))
    scheduler.run()
    settle(nodes, oracle, collector)
    assert collector.reported_pairs == 1
    # The R copy sits in node 1's shadow window; node 0 keeps R locally.
    assert nodes[1].shadow_windows[StreamId.R]
    assert not nodes[0].shadow_windows[StreamId.R]


@pytest.mark.usefixtures("zero_latency")
def test_shadow_window_catches_late_arrivals():
    scheduler, _, oracle, collector, nodes = build_pair()
    # R arrives first and is copied to node 1's shadow window.
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 3, 0))
    scheduler.run()
    # S then arrives at node 1: the local probe of the shadow finds the copy.
    nodes[1].on_local_arrival(make_tuple(StreamId.S, 3, 1))
    scheduler.run()
    settle(nodes, oracle, collector)
    assert collector.reported_pairs == 1


@pytest.mark.usefixtures("zero_latency")
def test_result_messages_emitted_for_cross_node_pairs():
    scheduler, network, oracle, collector, nodes = build_pair()
    nodes[1].on_local_arrival(make_tuple(StreamId.S, 3, 1))
    scheduler.run()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 3, 0))
    scheduler.run()
    settle(nodes, oracle, collector)
    assert collector.reported_pairs == 1
    # Both nodes discover the pair (each holds the other's forwarded copy)
    # and each reports its own discovery: deduplication happens at the
    # query consumer (the collector), not by peeking at global state.
    assert network.stats.messages_by_kind[MessageKind.RESULT.value] == 2
    assert collector.duplicates == 1


@pytest.mark.usefixtures("zero_latency")
def test_local_pairs_ship_no_result_message():
    scheduler, network, oracle, collector, nodes = build_pair()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 4, 0))
    nodes[0].on_local_arrival(make_tuple(StreamId.S, 4, 0))
    scheduler.run()
    settle(nodes, oracle, collector)
    assert collector.reported_pairs == 1
    assert network.stats.messages_by_kind[MessageKind.RESULT.value] == 0


@pytest.mark.usefixtures("zero_latency")
def test_service_time_includes_sender_pause():
    scheduler, network, _, _, nodes = build_pair()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 1, 0))
    scheduler.run()
    message_bytes = 24 + 8 + 40
    expected_pause = message_bytes * 8.0 / 90_000.0
    assert nodes[0].busy_seconds == pytest.approx(0.0002 + expected_pause)


@pytest.mark.usefixtures("zero_latency")
def test_queue_serializes_processing():
    scheduler, _, _, _, nodes = build_pair()
    for index in range(5):
        nodes[0].on_local_arrival(make_tuple(StreamId.R, index + 1, 0, index))
    assert nodes[0].service.queue_depth >= 4  # only one started
    scheduler.run()
    assert nodes[0].tuples_processed == 5
    assert nodes[0].max_queue_depth >= 4


@pytest.mark.usefixtures("zero_latency")
def test_crash_wipes_queue_depth_and_congestion_soft_state():
    from repro.recovery import RecoverySettings

    scheduler, _, _, _, nodes = build_pair(
        recovery=RecoverySettings(enabled=True)
    )
    node = nodes[0]
    for index in range(5):
        node.on_local_arrival(make_tuple(StreamId.R, index + 1, 0, index))
    assert node.max_queue_depth >= 4
    # Stand in for an adaptive-flow observation under backlog.
    node.policy.congestion_scale = 0.25
    node.recovery.on_crash()
    # The dead process's peak depth and throttle observations die with it.
    assert node.max_queue_depth == 0
    assert node.service.queue_depth == 0
    assert node.policy.congestion_scale == 1.0


@pytest.mark.usefixtures("zero_latency")
def test_full_replay_log_drops_the_incoming_arrival(monkeypatch):
    """With the log full, later arrivals are dropped and counted; the
    logged ones are replayed in their arrival order."""
    from repro.recovery import RecoverySettings, coordinator

    monkeypatch.setattr(coordinator, "REPLAY_LOG_CAPACITY", 2)
    scheduler, _, _, _, nodes = build_pair(recovery=RecoverySettings(enabled=True))
    node = nodes[0]
    node.recovery.on_crash()
    for index in range(5):
        node.on_local_arrival(make_tuple(StreamId.R, index + 1, 0, index))
    node.recovery.on_restart()
    scheduler.run()
    recovery = node.recovery
    assert (recovery.tuples_logged, recovery.replay_dropped) == (2, 3)
    assert recovery.tuples_replayed == 2
    assert [item.key for item in node.join.window(StreamId.R)] == [1, 2]
    assert recovery.machine.phase is RecoveryPhase.LIVE


@pytest.mark.usefixtures("zero_latency")
def test_remote_tuples_counted():
    scheduler, _, _, _, nodes = build_pair()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 1, 0))
    scheduler.run()
    assert nodes[1].remote_tuples_processed == 1


@pytest.mark.usefixtures("zero_latency")
def test_diagnostics_structure():
    scheduler, _, _, _, nodes = build_pair()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 1, 0))
    scheduler.run()
    diagnostics = nodes[0].diagnostics()
    for key in ("tuples_processed", "local_results", "max_queue_depth"):
        assert key in diagnostics


@pytest.mark.usefixtures("zero_latency")
def test_summary_piggybacking_for_dft_policy():
    scheduler, network, _, _, nodes = build_pair(algorithm=Algorithm.DFT)
    for index in range(64):
        stream = StreamId.R if index % 2 == 0 else StreamId.S
        nodes[0].on_local_arrival(make_tuple(stream, (index % 8) + 1, 0, index))
    scheduler.run()
    assert network.stats.summary_entries > 0


@pytest.mark.usefixtures("zero_latency")
def test_piggybacked_summary_reaches_the_peer_policy():
    scheduler, _, _, _, nodes = build_pair(algorithm=Algorithm.DFT)
    # Fill node 0's R summary past the refresh interval: the tuple sends
    # carry its updates, and node 1's policy learns node 0's R summary.
    for index in range(40):
        nodes[0].on_local_arrival(make_tuple(StreamId.R, (index % 8) + 1, 0, index))
    scheduler.run()
    assert nodes[1].policy.remote.get(0, StreamId.R) is not None


@pytest.mark.usefixtures("zero_latency")
def test_standalone_summary_flush():
    scheduler, network, _, _, nodes = build_pair(algorithm=Algorithm.DFT)
    # Node 1 receives local tuples but (probabilistically) may not forward
    # to node 0 for a while; the flush path guarantees summary delivery.
    for index in range(200):
        stream = StreamId.R if index % 2 == 0 else StreamId.S
        scheduler.schedule_at(
            index * 0.01,
            lambda s=stream, i=index: nodes[1].on_local_arrival(
                make_tuple(s, (i % 8) + 1, 1, i)
            ),
        )
    scheduler.run()
    summaries_known = nodes[0].policy.remote.get(1, StreamId.R)
    assert summaries_known is not None


class TestCheckpointWork:
    """Gates in counts, on a small scripted BLOOM ``--recovery`` run with
    one restart: a checkpoint tick pays for what changed since the last
    one, and what it remembers is bounded by what it mirrors."""

    @pytest.fixture
    def recovery_config(self, bloom_telemetry_config):
        from repro.net.faults import FaultPlan
        from repro.net.reliable import ReliabilitySettings
        from repro.recovery import RecoverySettings

        return dataclasses.replace(
            bloom_telemetry_config,
            reliability=ReliabilitySettings(enabled=True),
            recovery=RecoverySettings(enabled=True, checkpoint_interval_s=0.25),
            faults=FaultPlan.parse("crash@t=2,d=1,node=2,downtime=1", num_nodes=4),
        )

    def test_a_tuple_is_rendered_once_a_snapshot_once(self, monkeypatch, recovery_config):
        """``tuple_text`` calls are bounded by the tuples that entered
        a window or shadow window plus those a restore put back (before
        PR 24: every tuple of every window at every tick, 16,049 calls
        for the 1,984 here), payload encodes by the distinct payload
        objects the remote tables stored (344 for 25)."""
        from repro.core.summaries import RemoteSummaryTable
        from repro.core.system import DistributedJoinSystem
        from repro.streams.window import SlidingWindow

        counts = {"tuple_text": 0, "entered": 0, "payload": 0}
        stored = {}
        in_table = []
        appending = []

        def wrap(owner, name, wrapper):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: wrapper(original, *args))

        def tuple_text(original, item):
            counts["tuple_text"] += 1
            return original(item)

        def append(original, window, item):
            # Once per tuple, however many ``append``s the class chain runs.
            counts["entered"] += not appending
            appending.append(item)
            try:
                return original(window, item)
            finally:
                appending.pop()

        def restore(original, window, tuples, total_appended):
            tuples = list(tuples)
            counts["entered"] += len(tuples)
            return original(window, tuples, total_appended)

        def apply(original, table, source, update):
            changed = original(table, source, update)
            payload = table.get(source, update.stream)
            stored[id(payload)] = payload  # held, so ids stay distinct
            return changed

        def checkpoint_text(original, table):
            in_table.append(table)
            try:
                return original(table)
            finally:
                in_table.pop()

        def encode_payload(original, payload):
            counts["payload"] += bool(in_table)
            return original(payload)

        import repro.recovery.checkpoint as checkpoint
        import repro.recovery.delta as delta

        wrap(checkpoint, "tuple_text", tuple_text)
        # Every window class with an ``append`` of its own: a count window
        # appends inline, the others through ``SlidingWindow.append``.
        classes = [SlidingWindow]
        for owner in classes:
            classes.extend(owner.__subclasses__())
        for owner in classes:
            if "append" in vars(owner):
                wrap(owner, "append", append)
        wrap(SlidingWindow, "restore", restore)
        wrap(RemoteSummaryTable, "apply", apply)
        wrap(RemoteSummaryTable, "checkpoint_text", checkpoint_text)
        wrap(delta, "encode_payload", encode_payload)
        result = DistributedJoinSystem(recovery_config).run()
        assert result.recovery["restarts"] == 1.0
        assert result.recovery["checkpoints_taken"] > 50
        assert 0 < counts["tuple_text"] <= counts["entered"]
        assert 0 < counts["payload"] <= len(stored)

    def test_remembered_text_is_bounded_by_what_it_mirrors(self, recovery_config):
        from repro.core.system import DistributedJoinSystem

        system = DistributedJoinSystem(recovery_config)
        system.run()
        for node in system.nodes:
            node.recovery._checkpoint_blob(0.0)
            windows = [node.join.window(stream) for stream in StreamId]
            for stream in StreamId:
                windows.extend(node.shadow_windows[stream].values())
            assert len(windows) > 2
            for window in windows:
                _, text, start, lengths = window.rendered
                assert len(lengths) == len(window)
                assert len(text[start:-2]) == sum(lengths) + max(0, len(window) - 1)
            table = node.policy.remote
            assert table._rendered and len(table._rendered) == len(table._state)


def capture_sends(monkeypatch, network):
    """Record every ``(message, destination)`` handed to
    ``network.send``, then send it."""
    sent = []
    send = network.send

    def recording(message, destination):
        sent.append((message, destination))
        return send(message, destination)

    monkeypatch.setattr(network, "send", recording)
    return sent


class TestMessagePathShape:
    """What a queued message holds: the queue keeps the work item itself,
    and a tuple message with nothing to piggy-back carries no list."""

    @pytest.mark.usefixtures("zero_latency")
    def test_the_queue_holds_the_arrival_and_the_message_themselves(self):
        from repro.core.service import work_kind

        scheduler, _, _, _, nodes = build_pair()
        node = nodes[0]
        node.on_local_arrival(make_tuple(StreamId.R, 1, 0, 0))
        assert node.service.queue_depth == 0  # in service: the node is busy
        arrival = make_tuple(StreamId.S, 2, 0, 1)
        message = Message(
            kind=MessageKind.TUPLE,
            source=1,
            payload=(make_tuple(StreamId.R, 3, 1, 0), ()),
        )
        node.on_local_arrival(arrival)
        node.on_message(message)
        queue = node.service.queue
        assert len(queue) == 2
        assert queue[0] is arrival
        assert queue[1] is message
        assert [work_kind(work) for work in queue] == ["local", "message"]
        scheduler.run()
        assert node.tuples_processed == 2
        assert node.remote_tuples_processed == 1

    @pytest.mark.usefixtures("zero_latency")
    def test_a_base_tuple_message_carries_an_empty_tuple(self, monkeypatch):
        scheduler, network, _, _, nodes = build_pair()
        sent = capture_sends(monkeypatch, network)
        item = make_tuple(StreamId.R, 1, 0)
        nodes[0].on_local_arrival(item)
        scheduler.run()
        ((message, destination),) = [
            (m, d) for m, d in sent if m.kind is MessageKind.TUPLE
        ]
        assert destination == 1
        assert message.payload == (item.with_timestamp(0.0), ())
        assert type(message.payload[1]) is tuple
        assert message.summary_entries == 0

    @pytest.mark.usefixtures("zero_latency")
    def test_a_pending_update_still_rides_as_a_list(self, monkeypatch):
        _, network, _, _, nodes = build_pair(algorithm=Algorithm.DFT)
        sent = capture_sends(monkeypatch, network)
        node = nodes[0]
        node.policy.outbox.take(1)
        update = SummaryUpdate(
            algorithm="DFT", stream=StreamId.R, version=1, window_size=8,
            entries=3, payload={}, full_state=False,
        )
        node.policy.outbox.queue_for(1, update)
        item = make_tuple(StreamId.R, 1, 0)
        node._forward(item, [1, 1], 0.0, 0.0)
        (first, _), (second, _) = sent
        assert first.payload == (item, [update])
        assert first.summary_entries == 3
        assert second.payload == (item, ())
        assert second.summary_entries == 0

    @pytest.mark.usefixtures("zero_latency")
    def test_a_base_broadcast_is_one_message_object(self, monkeypatch):
        """One BASE arrival builds exactly one TUPLE message: it is sent
        once per peer, and each of the N - 1 deliveries is that object."""
        built = []
        post_init = Message.__post_init__

        def counted(message):
            post_init(message)
            built.append(message)

        monkeypatch.setattr(Message, "__post_init__", counted)
        delivered = []
        record_delivery = Network._record_delivery

        def recording(self, message, destination):
            delivered.append((destination, message))
            record_delivery(self, message, destination)

        monkeypatch.setattr(Network, "_record_delivery", recording)
        scheduler, network, _, _, nodes = build_pair(num_nodes=4)
        sent = capture_sends(monkeypatch, network)
        nodes[0].on_local_arrival(make_tuple(StreamId.R, 1, 0))
        scheduler.run()
        (message,) = [m for m in built if m.kind is MessageKind.TUPLE]
        assert sent == [(message, 1), (message, 2), (message, 3)]
        assert sorted(destination for destination, _ in delivered) == [1, 2, 3]
        assert all(copy is message for _, copy in delivered)
        assert [node.remote_tuples_processed for node in nodes] == [0, 1, 1, 1]
