"""Unit tests for per-query node internals."""

import math

import numpy as np
import pytest

from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.node import JoinProcessingNode
from repro.core.policies import PolicyContext, make_policy
from repro.errors import ConfigurationError
from repro.join.ground_truth import GroundTruthOracle
from repro.metrics.accounting import ResultCollector, replay_accounting
from repro.net.link import LinkSpec
from repro.net.message import MessageKind
from repro.net.simulator import EventScheduler
from repro.net.topology import Network
from repro.streams.tuples import StreamId, StreamTuple

pytestmark = pytest.mark.usefixtures("zero_latency")


def build_two_node_two_query(algorithm=Algorithm.BASE):
    config = SystemConfig(
        num_nodes=2,
        window_size=8,
        num_queries=2,
        policy=PolicyConfig(algorithm=algorithm, kappa=2.0),
        workload=WorkloadConfig(domain=64),
        link=LinkSpec(bandwidth_bps=math.inf),
    )
    scheduler = EventScheduler()
    network = Network(scheduler, spec=config.link, rng=np.random.default_rng(0))
    oracles = [GroundTruthOracle() for _ in range(2)]
    collectors = [ResultCollector() for _ in range(2)]
    nodes = []
    for node_id in (0, 1):

        def policy_for(query):
            context = PolicyContext(
                node_id=node_id,
                peer_ids=(1 - node_id,),
                window_size=8,
                domain=64,
                config=config.policy,
                rng=np.random.default_rng(10 * node_id + query),
            )
            return make_policy(context, {})

        node = JoinProcessingNode(
            node_id=node_id,
            config=config,
            scheduler=scheduler,
            network=network,
            policy=policy_for(0),
            oracle=oracles[0],
            collector=collectors[0],
        )
        node.add_query(1, policy_for(1), oracles[1], collectors[1])
        network.register(node_id, node)
        nodes.append(node)
    return scheduler, network, oracles, collectors, nodes


def make_tuple(stream, key, origin, query):
    return StreamTuple(
        stream=stream, key=key, origin_node=origin, arrival_index=0, query_id=query
    )


def settle(nodes, oracles, collectors):
    """Replay the nodes' deferred accounting (what the system does at collect)."""
    replay_accounting(
        [op for node in nodes for op in node.accounting_ops], oracles, collectors
    )


def test_duplicate_query_id_rejected():
    scheduler, network, oracles, collectors, nodes = build_two_node_two_query()
    with pytest.raises(ConfigurationError):
        nodes[0].add_query(1, nodes[0].query(1).policy, oracles[1], collectors[1])


def test_queries_do_not_join_each_other():
    scheduler, _, oracles, collectors, nodes = build_two_node_two_query()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 5, 0, query=0))
    nodes[0].on_local_arrival(make_tuple(StreamId.S, 5, 0, query=1))
    scheduler.run()
    assert oracles[0].total_result_pairs == 0
    assert oracles[1].total_result_pairs == 0
    assert collectors[0].reported_pairs == 0
    assert collectors[1].reported_pairs == 0


def test_same_query_joins_normally():
    scheduler, _, oracles, collectors, nodes = build_two_node_two_query()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 5, 0, query=1))
    nodes[0].on_local_arrival(make_tuple(StreamId.S, 5, 0, query=1))
    scheduler.run()
    settle(nodes, oracles, collectors)
    assert oracles[1].total_result_pairs == 1
    assert collectors[1].reported_pairs == 1
    assert collectors[0].reported_pairs == 0


def test_forwarded_tuples_route_to_their_query():
    scheduler, _, oracles, collectors, nodes = build_two_node_two_query()
    nodes[1].on_local_arrival(make_tuple(StreamId.S, 9, 1, query=1))
    scheduler.run()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 9, 0, query=1))
    scheduler.run()
    settle(nodes, oracles, collectors)
    assert collectors[1].reported_pairs == 1
    # The copy landed in query 1's shadow windows at node 1, not query 0's.
    assert nodes[1].query(1).shadow_windows[StreamId.R]
    assert not nodes[1].query(0).shadow_windows[StreamId.R]


def test_result_messages_emitted_for_cross_node_pairs():
    scheduler, network, oracles, collectors, nodes = build_two_node_two_query()
    nodes[1].on_local_arrival(make_tuple(StreamId.S, 3, 1, query=0))
    scheduler.run()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 3, 0, query=0))
    scheduler.run()
    settle(nodes, oracles, collectors)
    assert collectors[0].reported_pairs == 1
    # Both nodes discover the pair (each holds the other's forwarded copy)
    # and each reports its own discovery: deduplication happens at the
    # query consumer (the collector), not by peeking at global state.
    assert network.stats.messages(MessageKind.RESULT) == 2
    assert collectors[0].duplicates == 1


def test_local_pairs_ship_no_result_message():
    scheduler, network, oracles, collectors, nodes = build_two_node_two_query()
    nodes[0].on_local_arrival(make_tuple(StreamId.R, 4, 0, query=0))
    nodes[0].on_local_arrival(make_tuple(StreamId.S, 4, 0, query=0))
    scheduler.run()
    settle(nodes, oracles, collectors)
    assert collectors[0].reported_pairs == 1
    assert network.stats.messages(MessageKind.RESULT) == 0


def test_summary_piggyback_carries_both_queries():
    scheduler, network, _, _, nodes = build_two_node_two_query(Algorithm.DFT)
    # Fill both queries' summaries past the refresh interval, then force a
    # tuple send: the message must carry updates tagged for both queries.
    for index in range(40):
        nodes[0].on_local_arrival(make_tuple(StreamId.R, (index % 8) + 1, 0, query=0))
        nodes[0].on_local_arrival(make_tuple(StreamId.R, (index % 8) + 1, 0, query=1))
    scheduler.run()
    remote0 = nodes[1].query(0).policy.remote.get(0, StreamId.R)
    remote1 = nodes[1].query(1).policy.remote.get(0, StreamId.R)
    assert remote0 is not None
    assert remote1 is not None
