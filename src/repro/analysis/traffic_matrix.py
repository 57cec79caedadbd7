"""Traffic matrices: who sent how much to whom.

Built from the lazy per-link counters of :class:`repro.net.topology.Network`.
The skew of these matrices is the visible footprint of the correlation
filtering: under geographic skew most of a node's traffic goes to its few
correlated peers.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.net.topology import Network


def _matrix(network: Network, component: int) -> np.ndarray:
    node_ids = network.node_ids
    if not node_ids:
        raise ConfigurationError("network has no registered nodes")
    index = {node: i for i, node in enumerate(node_ids)}
    matrix = np.zeros((len(node_ids), len(node_ids)), dtype=np.int64)
    for (source, destination), counters in network.link_stats().items():
        matrix[index[source], index[destination]] = counters[component]
    return matrix


def message_matrix(network: Network) -> np.ndarray:
    """N x N matrix of message counts (row = sender, column = receiver)."""
    return _matrix(network, 0)


def top_talkers(
    network: Network, count: int = 5
) -> List[Tuple[int, int, int, int]]:
    """The busiest directed links: ``(source, destination, messages, bytes)``.

    Sorted by bytes, descending; ties broken by the (source, destination)
    pair for determinism.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    rows = [
        (source, destination, counters[0], counters[1])
        for (source, destination), counters in network.link_stats().items()
    ]
    rows.sort(key=lambda row: (-row[3], row[0], row[1]))
    return rows[:count]
