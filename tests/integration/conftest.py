"""Shared integration fixtures: small-but-real system configurations."""

import dataclasses
import math

import pytest

from repro.config import PolicyConfig, SystemConfig, WorkloadConfig
from repro.net.link import LinkSpec


@pytest.fixture
def lossy_config():
    """Factory for the 4-node lossy-WAN configuration the fault and chaos
    suites share.

    ``loss`` sets the links' independent drop probability; ``faults`` and
    ``reliability`` wire in a fault plan / the reliable transport; any
    other :class:`SystemConfig` field can be overridden by keyword.
    """

    def make(algorithm, loss=0.0, faults=None, reliability=None, **overrides):
        extra = dict(overrides)
        if faults is not None:
            extra["faults"] = faults
        if reliability is not None:
            extra["reliability"] = reliability
        base = SystemConfig(
            num_nodes=4,
            window_size=96,
            policy=PolicyConfig(algorithm=algorithm, kappa=4.0),
            workload=WorkloadConfig(total_tuples=1500, domain=512, arrival_rate=120.0),
            link=LinkSpec(bandwidth_bps=math.inf, loss_probability=loss),
            seed=31,
        )
        return dataclasses.replace(base, **extra) if extra else base

    return make
