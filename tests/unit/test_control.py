"""Unit tests for the recomputation control vector."""

import pytest

from repro.dft.control import ControlVector
from repro.errors import ConfigurationError


def test_validation():
    with pytest.raises(ConfigurationError):
        ControlVector(recompute_interval=0)
    with pytest.raises(ConfigurationError):
        ControlVector(recompute_interval=1, reduction_factor=0.5)
    with pytest.raises(ConfigurationError):
        ControlVector(recompute_interval=1, completion_probability=1.0)
    with pytest.raises(ConfigurationError):
        ControlVector(recompute_interval=1, drift_bound=0.0)


def test_default_targets_paper_operating_point():
    vector = ControlVector.default(1024)
    assert vector.reduction_factor == 10.0
    assert vector.completion_probability == 0.95
    # interval = 10 * log2(1024) = 100
    assert vector.recompute_interval == 100


def test_default_interval_grows_with_window():
    small = ControlVector.default(64)
    large = ControlVector.default(2**16)
    assert large.recompute_interval > small.recompute_interval


def test_default_tiny_window():
    vector = ControlVector.default(1)
    assert vector.recompute_interval >= 1


def test_should_recompute_threshold():
    vector = ControlVector(recompute_interval=5)
    assert not vector.should_recompute(4)
    assert vector.should_recompute(5)
    assert vector.should_recompute(6)


def test_drift_safe_interval_binds():
    vector = ControlVector(
        recompute_interval=10**9, drift_bound=1e-14, unit_roundoff=1e-16
    )
    assert vector.drift_safe_interval() == 100
    assert vector.should_recompute(100)
    assert not vector.should_recompute(99)
