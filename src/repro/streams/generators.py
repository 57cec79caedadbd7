"""Synthetic workload generators (Section 6).

The paper's synthetic data is "10,000,000 integers generated in the range
[1 : 2^19] according to two distributions: (1) UNI - uniform distribution,
and (2) ZIPF - Zipfian distribution with parameter alpha = 0.4".

``zipf_stream`` draws from a finite Zipf (power-law) distribution over the
key domain: P(rank i) proportional to 1 / i**alpha.  With alpha < 1 the
distribution is not summable in the infinite limit but perfectly well
defined over a finite domain, which is what the paper samples.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro._rng import ensure_rng
from repro.errors import ConfigurationError

DEFAULT_DOMAIN = 2**19
"""Key domain of the paper's synthetic workloads."""


def zipf_weights(domain: int, alpha: float) -> np.ndarray:
    """Normalized Zipf probabilities over ranks ``1..domain``.

    ``alpha = 0`` degenerates to the uniform distribution.
    """
    if domain < 1:
        raise ConfigurationError("domain must be >= 1")
    ranks = np.arange(1, domain + 1, dtype=np.float64)
    weights = ranks**-alpha
    return weights / weights.sum()


def uniform_stream(
    domain: int = DEFAULT_DOMAIN,
    rng=None,
    chunk: int = 8192,
) -> Iterator[int]:
    """Endless UNI stream: keys uniform over ``[1, domain]``."""
    generator = ensure_rng(rng)
    if domain < 1:
        raise ConfigurationError("domain must be >= 1")
    while True:
        block = generator.integers(1, domain + 1, size=chunk)
        for value in block:
            yield int(value)


def zipf_stream(
    domain: int = DEFAULT_DOMAIN,
    alpha: float = 0.4,
    rng=None,
    chunk: int = 8192,
    permute: bool = False,
) -> Iterator[int]:
    """Endless ZIPF stream: keys Zipf(alpha)-distributed over ``[1, domain]``.

    Rank 1 is the most popular key.  With ``permute`` the rank-to-key mapping
    is shuffled so popularity is not aligned with key magnitude (useful when
    the key domain is range-partitioned across nodes).
    """
    generator = ensure_rng(rng)
    weights = zipf_weights(domain, alpha)
    keys = np.arange(1, domain + 1, dtype=np.int64)
    if permute:
        keys = generator.permutation(keys)
    while True:
        block = generator.choice(keys, size=chunk, p=weights)
        for value in block:
            yield int(value)
