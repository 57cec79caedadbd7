"""Geographic-skew stream partitioning.

The paper's headline result ("sub-linear message complexity in domains that
exhibit a geographic skew in the joining attributes") depends on *where*
tuples arrive: each node sees a biased slice of the key domain, so some node
pairs share many joining keys while others share few.  The DFT correlation
coefficients discover exactly that structure.

:class:`GeographicPartitioner` models it directly.  The key domain is split
into ``num_nodes`` contiguous ranges; a key's *home node* owns its range.
An arriving tuple lands on its home node with high probability and on other
nodes with probability decaying geometrically in ring distance, blended with
a uniform background:

    P(node j | home h)  proportional to  (1 - skew)/N + skew * SPREAD**dist(h, j)

``skew = 0`` removes all geography (every node sees the global mix -- the
paper's worst case, where all pairwise correlations coincide), while
``skew = 1`` with a small ``SPREAD`` pins each key range to one node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._rng import ensure_rng
from repro.errors import ConfigurationError

SPREAD = 0.35
"""Geometric decay of the placement with ring distance from the home
node.  Read when a partitioner is built, so a check that needs another
decay patches this name."""


@dataclass(frozen=True)
class PartitionerConfig:
    """Parameters of the geographic placement model."""

    num_nodes: int
    domain: int
    skew: float = 0.85

    def validate(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if self.domain < self.num_nodes:
            raise ConfigurationError("domain must be >= num_nodes")
        if not 0.0 <= self.skew <= 1.0:
            raise ConfigurationError("skew must lie in [0, 1]")


class GeographicPartitioner:
    """Assigns arrival nodes to keys according to the placement model."""

    def __init__(self, config: PartitionerConfig, rng=None) -> None:
        config.validate()
        self.config = config
        self._rng = ensure_rng(rng)
        self._placement = self._build_placement_matrix()

    def _build_placement_matrix(self) -> np.ndarray:
        """Row h = arrival-node distribution for keys homed at node h."""
        n = self.config.num_nodes
        matrix = np.empty((n, n), dtype=np.float64)
        for home in range(n):
            distances = np.minimum(
                (np.arange(n) - home) % n, (home - np.arange(n)) % n
            )
            local = SPREAD ** distances.astype(np.float64)
            local /= local.sum()
            matrix[home] = (1.0 - self.config.skew) / n + self.config.skew * local
            matrix[home] /= matrix[home].sum()
        return matrix

    def assign(self, keys: Sequence[int]) -> np.ndarray:
        """Vectorized arrival-node assignment for a batch of keys."""
        keys_arr = np.asarray(keys, dtype=np.int64)
        if keys_arr.size == 0:
            return np.empty(0, dtype=np.int64)
        if keys_arr.min() < 1 or keys_arr.max() > self.config.domain:
            raise ConfigurationError("keys outside domain [1, %d]" % self.config.domain)
        homes = np.minimum(
            (keys_arr - 1) * self.config.num_nodes // self.config.domain,
            self.config.num_nodes - 1,
        )
        uniforms = self._rng.random(keys_arr.size)
        cumulative = np.cumsum(self._placement, axis=1)
        nodes = np.empty(keys_arr.size, dtype=np.int64)
        for home in range(self.config.num_nodes):
            mask = homes == home
            if not mask.any():
                continue
            nodes[mask] = np.searchsorted(cumulative[home], uniforms[mask], side="right")
        return np.clip(nodes, 0, self.config.num_nodes - 1)
