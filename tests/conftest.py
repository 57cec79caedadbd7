"""Shared fixtures."""

import os

import numpy as np
import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    TelemetrySettings,
    WorkloadConfig,
    WorkloadKind,
)


@pytest.fixture(scope="session", autouse=True)
def _isolated_parallel_env(tmp_path_factory):
    """Keep the suite side-effect free.

    The run-result cache defaults to ``.repro-cache/`` in the working
    directory; tests must never read a developer's warm cache or leave
    entries behind, so the default is redirected to a session temp dir.
    """
    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if saved is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = saved


@pytest.fixture
def rng():
    """A deterministic generator; tests that need their own seed make one."""
    return np.random.default_rng(1234)


@pytest.fixture
def zero_latency(monkeypatch):
    """Links deliver after serialization alone: the testbed's 20-100 ms
    propagation range, a pair of module constants, patched to zero."""
    from repro.net import link

    monkeypatch.setattr(link, "LATENCY_MIN_S", 0.0)
    monkeypatch.setattr(link, "LATENCY_MAX_S", 0.0)


@pytest.fixture
def bloom_telemetry_config():
    """A small BLOOM run with telemetry on (message events included): the
    script behind the hash-evaluation and registry-lookup count gates."""
    return SystemConfig(
        num_nodes=4,
        window_size=32,
        policy=PolicyConfig(algorithm=Algorithm.BLOOM, kappa=4.0),
        workload=WorkloadConfig(
            kind=WorkloadKind.ZIPF, total_tuples=800, domain=64, arrival_rate=150.0
        ),
        telemetry=TelemetrySettings(enabled=True),
        seed=23,
    )
