"""Synthetic NWRK workload.

Stand-in for the paper's 2.2 M packet traces (one day of traffic from the
ICDE'06 data set, no longer hosted).  The joining attribute models a flow
identifier (e.g. a hashed source address): traffic is dominated by a small
set of heavy-hitter flows with long on/off bursts, plus a uniform haystack
of one-off scanners.  The result is a Zipf-like marginal with strong
temporal locality -- the regime in which the paper's correlation filtering
shines (malicious-packet tracking is the Section 1 motivating example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro._rng import ensure_rng
from repro.errors import ConfigurationError
from repro.streams.generators import zipf_weights


@dataclass(frozen=True)
class NetworkTraceConfig:
    """Parameters of the synthetic packet trace."""

    domain: int = 2**19
    heavy_flows: int = 256
    heavy_alpha: float = 1.1
    heavy_fraction: float = 0.7
    burst_length_mean: float = 24.0

    def validate(self) -> None:
        if self.domain < 1:
            raise ConfigurationError("domain must be >= 1")
        if not 1 <= self.heavy_flows <= self.domain:
            raise ConfigurationError("heavy_flows must lie in [1, domain]")
        if not 0 <= self.heavy_fraction <= 1:
            raise ConfigurationError("heavy_fraction must lie in [0, 1]")
        if self.burst_length_mean < 1:
            raise ConfigurationError("burst_length_mean must be >= 1")


def network_trace_stream(
    config: NetworkTraceConfig = NetworkTraceConfig(),
    rng=None,
) -> Iterator[int]:
    """Endless stream of flow-id keys with heavy hitters and bursts."""
    config.validate()
    generator = ensure_rng(rng)
    heavy_ids = generator.choice(
        np.arange(1, config.domain + 1), size=config.heavy_flows, replace=False
    )
    heavy_probs = zipf_weights(config.heavy_flows, config.heavy_alpha)
    current_flow = int(generator.choice(heavy_ids, p=heavy_probs))
    remaining_burst = 0
    while True:
        if generator.random() < config.heavy_fraction:
            if remaining_burst <= 0:
                current_flow = int(generator.choice(heavy_ids, p=heavy_probs))
                remaining_burst = 1 + int(
                    generator.exponential(config.burst_length_mean)
                )
            remaining_burst -= 1
            yield current_flow
        else:
            yield int(generator.integers(1, config.domain + 1))
