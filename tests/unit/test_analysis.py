"""Unit tests for the post-run analysis helpers."""

import numpy as np
import pytest

from repro.analysis import (
    load_balance_report,
    message_matrix,
    similarity_matrix,
    top_talkers,
)
from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.system import DistributedJoinSystem
from repro.errors import ConfigurationError
from repro.net.link import LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventScheduler
from repro.net.topology import Network
from repro.streams.tuples import StreamId
from tests.ingress import Sink


def small_system(algorithm=Algorithm.DFTT):
    config = SystemConfig(
        num_nodes=3,
        window_size=64,
        policy=PolicyConfig(algorithm=algorithm, kappa=4.0),
        workload=WorkloadConfig(total_tuples=900, domain=512, arrival_rate=150.0),
        seed=19,
    )
    system = DistributedJoinSystem(config)
    result = system.run()
    return system, result


class TestTrafficMatrix:
    def _network(self):
        scheduler = EventScheduler()
        network = Network(scheduler, 3, spec=LinkSpec(), rng=np.random.default_rng(3))
        for node_id in (0, 1, 2):
            network.register(node_id, Sink(scheduler))
        return network

    def test_matrices_reflect_sends(self):
        network = self._network()
        for _ in range(3):
            network.send(Message(kind=MessageKind.TUPLE, source=0), 1)
        network.send(Message(kind=MessageKind.TUPLE, source=2), 0)
        messages = message_matrix(network)
        assert messages[0, 1] == 3
        assert messages[2, 0] == 1
        assert messages[1, 2] == 0
        assert network.link_stats()[(0, 1)][1] == 3 * 72

    def test_diagonal_is_zero(self):
        network = self._network()
        assert message_matrix(network).diagonal().sum() == 0

    def test_top_talkers_ordering(self):
        network = self._network()
        for _ in range(5):
            network.send(Message(kind=MessageKind.TUPLE, source=1), 2)
        network.send(Message(kind=MessageKind.TUPLE, source=0), 1)
        talkers = top_talkers(network, count=2)
        assert talkers[0][:2] == (1, 2)
        assert talkers[0][2] == 5
        with pytest.raises(ConfigurationError):
            top_talkers(network, count=0)

    def test_empty_network_rejected(self):
        scheduler = EventScheduler()
        network = Network(scheduler, 0, rng=np.random.default_rng(4))
        with pytest.raises(ConfigurationError):
            message_matrix(network)


class TestLoadBalance:
    def test_report_fields(self):
        _, result = small_system()
        report = load_balance_report(result, metric="tuples_processed")
        assert set(report.per_node) == {0, 1, 2}
        assert report.minimum <= report.mean <= report.maximum
        assert 1 / 3 <= report.jain_index <= 1.0

    def test_unknown_metric_rejected(self):
        _, result = small_system()
        with pytest.raises(ConfigurationError):
            load_balance_report(result, metric="nonexistent")


class TestSimilarityMatrix:
    def test_dftt_matrix_shape_and_range(self):
        system, _ = small_system(Algorithm.DFTT)
        matrix = similarity_matrix(system, StreamId.R)
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix.diagonal(), 1.0)
        off_diagonal = matrix[~np.eye(3, dtype=bool)]
        assert ((0.0 <= off_diagonal) & (off_diagonal <= 1.0)).all()

    def test_base_policy_rejected(self):
        system, _ = small_system(Algorithm.BASE)
        with pytest.raises(ConfigurationError):
            similarity_matrix(system)


class TestPinnedSeededRun:
    """Exact values from the seed-19 reference run.

    These pin the analysis helpers end-to-end: any change to the
    simulation order, the RNG stream, or the aggregation math shows up
    here as a concrete numeric diff rather than a vague shape failure.
    """

    @pytest.fixture(scope="class")
    def run(self):
        return small_system(Algorithm.DFTT)

    def test_traffic_matrices(self, run):
        system, _ = run
        expected_messages = np.array(
            [[0, 269, 307], [258, 0, 264], [331, 311, 0]]
        )
        assert (message_matrix(system.network) == expected_messages).all()
        assert {
            pair: row[1] for pair, row in system.network.link_stats().items()
        } == {
            (0, 1): 21868, (0, 2): 24604, (1, 0): 20756,
            (1, 2): 21188, (2, 0): 26972, (2, 1): 25532,
        }
        assert top_talkers(system.network, count=2) == [
            (2, 0, 331, 26972),
            (2, 1, 311, 25532),
        ]

    def test_load_balance(self, run):
        _, result = run
        report = load_balance_report(result, metric="tuples_processed")
        assert report.per_node == {0: 297.0, 1: 278.0, 2: 325.0}
        assert report.mean == pytest.approx(300.0)
        assert report.jain_index == pytest.approx(0.9958763342898664)
        busy = load_balance_report(result, metric="busy_seconds")
        assert busy.per_node[2] == pytest.approx(4.7605722222, rel=1e-9)
        assert busy.jain_index == pytest.approx(0.9917663427468089)

    def test_similarity_matrix(self, run):
        system, _ = run
        expected = np.array(
            [
                [1.0, 0.60704241, 0.49699954],
                [0.41155472, 1.0, 0.37680174],
                [0.47121297, 0.44654971, 1.0],
            ]
        )
        assert np.allclose(similarity_matrix(system, StreamId.R), expected)
