"""Unit tests for latency tracking."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.latency import LatencyTracker


def test_empty_tracker():
    tracker = LatencyTracker()
    assert tracker.mean() == 0.0
    assert tracker.percentile(95) == 0.0
    assert tracker.maximum == 0.0


def test_validation():
    with pytest.raises(ConfigurationError):
        LatencyTracker(capacity=0)
    with pytest.raises(ConfigurationError):
        LatencyTracker().percentile(101)


def test_exact_aggregates():
    tracker = LatencyTracker()
    for value in (0.1, 0.2, 0.3):
        tracker.record(value)
    assert tracker.count == 3
    assert tracker.mean() == pytest.approx(0.2)
    assert tracker.maximum == pytest.approx(0.3)


def test_negative_clamped():
    tracker = LatencyTracker()
    tracker.record(-1e-12)
    assert tracker.mean() == 0.0


def test_percentiles_from_full_sample():
    tracker = LatencyTracker(capacity=1000)
    for value in range(100):
        tracker.record(value / 100.0)
    assert tracker.percentile(0) == 0.0
    assert tracker.percentile(50) == pytest.approx(0.5, abs=0.02)
    assert tracker.percentile(95) == pytest.approx(0.94, abs=0.03)
    assert tracker.percentile(100) == pytest.approx(0.99)


def test_bounded_memory_under_flood():
    tracker = LatencyTracker(capacity=64)
    for value in range(10_000):
        tracker.record(float(value % 10))
    assert len(tracker._samples) == 64
    assert tracker.count == 10_000
    assert tracker.mean() == pytest.approx(4.5, abs=0.01)
    assert 0.0 <= tracker.percentile(50) <= 9.0


def test_snapshot_keys():
    tracker = LatencyTracker()
    tracker.record(0.5)
    snapshot = tracker.snapshot()
    assert set(snapshot) == {"count", "mean", "p50", "p95", "max"}


def test_end_to_end_latency_is_plausible():
    """Full run: latencies are non-negative and bounded by the run length;
    remote discoveries put the p95 above the local-join floor."""
    from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
    from repro.core.system import run_experiment

    config = SystemConfig(
        num_nodes=4,
        window_size=96,
        policy=PolicyConfig(algorithm=Algorithm.BASE),
        workload=WorkloadConfig(total_tuples=1200, domain=512, arrival_rate=150.0),
        seed=41,
    )
    result = run_experiment(config)
    assert result.latency["count"] == result.reported_pairs
    assert 0.0 <= result.latency["mean"] <= result.duration_seconds
    # Most pairs surface instantly (the earlier member's copy was already
    # waiting in a shadow window), but the race cases pay a link latency.
    assert result.latency["max"] >= 0.02
    assert result.latency["max"] <= result.duration_seconds
