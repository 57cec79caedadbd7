"""Unit tests for geographic-skew partitioning."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.streams import partitioner as partitioner_module
from repro.streams.partitioner import GeographicPartitioner, PartitionerConfig


def _partitioner(num_nodes=4, domain=1000, skew=0.85, seed=3):
    return GeographicPartitioner(
        PartitionerConfig(num_nodes=num_nodes, domain=domain, skew=skew),
        rng=np.random.default_rng(seed),
    )


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PartitionerConfig(num_nodes=0, domain=10).validate()
    with pytest.raises(ConfigurationError):
        PartitionerConfig(num_nodes=10, domain=5).validate()
    with pytest.raises(ConfigurationError):
        PartitionerConfig(num_nodes=2, domain=10, skew=1.5).validate()


def test_placement_matrix_rows_are_distributions():
    partitioner = _partitioner()
    matrix = partitioner._placement
    assert matrix.shape == (4, 4)
    assert np.allclose(matrix.sum(axis=1), 1.0)
    assert (matrix >= 0).all()


def test_home_node_partitions_domain_contiguously(monkeypatch):
    # Full skew with no spread: every key lands on its home node.
    monkeypatch.setattr(partitioner_module, "SPREAD", 0.0)
    partitioner = _partitioner(num_nodes=4, domain=1000, skew=1.0)
    assert partitioner.assign([1, 250, 251, 1000]).tolist() == [0, 0, 1, 3]


def test_home_node_rejects_out_of_domain():
    partitioner = _partitioner()
    with pytest.raises(ConfigurationError):
        partitioner.assign([0])
    with pytest.raises(ConfigurationError):
        partitioner.assign([1001])


def test_high_skew_concentrates_on_home_node(monkeypatch):
    monkeypatch.setattr(partitioner_module, "SPREAD", 0.05)
    partitioner = _partitioner(skew=1.0)
    keys = [10] * 2000  # homed at node 0
    nodes = partitioner.assign(keys)
    assert np.mean(nodes == 0) > 0.9


def test_zero_skew_is_uniform_placement():
    partitioner = _partitioner(skew=0.0)
    matrix = partitioner._placement
    assert np.allclose(matrix, 1.0 / 4)


def test_assign_matches_per_key_distribution():
    partitioner = _partitioner(seed=8)
    keys = np.full(5000, 600)  # home node 2 of 4
    nodes = partitioner.assign(keys)
    expected = partitioner._placement[2]
    observed = np.bincount(nodes, minlength=4) / len(nodes)
    assert np.abs(observed - expected).max() < 0.03


def test_assign_empty_input():
    partitioner = _partitioner()
    assert partitioner.assign([]).size == 0


def test_assign_rejects_out_of_domain_keys():
    partitioner = _partitioner()
    with pytest.raises(ConfigurationError):
        partitioner.assign([0, 5])


def test_neighbor_affinity_decays_with_distance(monkeypatch):
    monkeypatch.setattr(partitioner_module, "SPREAD", 0.3)
    partitioner = _partitioner(num_nodes=8)
    row = partitioner._placement[0]
    assert row[0] > row[1] > row[2]
    # Ring distance: node 7 is adjacent to node 0.
    assert row[7] == pytest.approx(row[1])
