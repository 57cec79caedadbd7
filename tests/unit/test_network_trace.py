"""Unit tests for the synthetic NWRK workload."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.streams.network import (
    NetworkTraceConfig,
    network_trace_stream,
)


def _flows(count=5000, seed=9, **kwargs):
    config = NetworkTraceConfig(**kwargs) if kwargs else NetworkTraceConfig()
    stream = network_trace_stream(config, rng=np.random.default_rng(seed))
    return list(itertools.islice(stream, count))


def test_flows_within_domain():
    flows = _flows(domain=500, heavy_flows=16)
    assert min(flows) >= 1
    assert max(flows) <= 500


def test_heavy_hitters_dominate():
    flows = _flows(domain=2**16, heavy_flows=32, heavy_fraction=0.8)
    counts = Counter(flows)
    top = sum(count for _, count in counts.most_common(32))
    assert top / len(flows) > 0.5


def test_bursts_create_temporal_locality():
    flows = _flows(heavy_fraction=0.9, burst_length_mean=50.0)
    repeats = sum(1 for a, b in zip(flows[:-1], flows[1:]) if a == b)
    assert repeats / len(flows) > 0.4


def test_zero_heavy_fraction_is_pure_scanner_noise():
    flows = _flows(count=2000, domain=10_000, heavy_fraction=0.0)
    counts = Counter(flows)
    assert counts.most_common(1)[0][1] < 10


def test_config_validation():
    with pytest.raises(ConfigurationError):
        NetworkTraceConfig(domain=0).validate()
    with pytest.raises(ConfigurationError):
        NetworkTraceConfig(heavy_flows=0).validate()
    with pytest.raises(ConfigurationError):
        NetworkTraceConfig(domain=10, heavy_flows=11).validate()
    with pytest.raises(ConfigurationError):
        NetworkTraceConfig(heavy_fraction=1.5).validate()
    with pytest.raises(ConfigurationError):
        NetworkTraceConfig(burst_length_mean=0.5).validate()


def test_determinism():
    assert _flows(seed=7) == _flows(seed=7)
