"""Unit tests for the per-kernel profiling module."""

import json

from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.system import run_experiment
from repro.profiling import (
    KernelProfiler,
    KernelTimer,
    Stopwatch,
    profile_call,
)


def test_timer_accumulates_calls_and_items():
    timer = KernelTimer("k")
    timer.add(0.5, 0.4, items=10)
    timer.add(0.5, 0.4, items=5)
    assert timer.calls == 2
    assert timer.items == 15
    assert timer.wall_seconds == 1.0
    assert timer.items_per_second == 15.0


def test_timer_zero_wall_time_has_zero_throughput():
    assert KernelTimer("k").items_per_second == 0.0


def test_section_times_and_counts():
    profiler = KernelProfiler()
    with profiler.section("work", items=3):
        sum(range(1000))
    with profiler.section("work", items=2):
        pass
    snap = profiler.snapshot()["work"]
    assert snap["calls"] == 2.0
    assert snap["items"] == 5.0
    assert snap["wall_seconds"] >= 0.0


def test_section_records_on_exception():
    profiler = KernelProfiler()
    try:
        with profiler.section("boom"):
            raise ValueError("x")
    except ValueError:
        pass
    assert profiler.snapshot()["boom"]["calls"] == 1.0


def test_snapshot_is_json_serializable_and_sorted():
    profiler = KernelProfiler()
    profiler.record("b", wall=0.1, cpu=0.1)
    profiler.record("a", wall=0.2, cpu=0.2, items=4)
    snap = profiler.snapshot()
    assert list(snap) == ["a", "b"]
    json.dumps(snap)


def test_format_lists_every_kernel():
    profiler = KernelProfiler()
    profiler.record("alpha", wall=0.1, cpu=0.1)
    profiler.record("beta", wall=0.2, cpu=0.2)
    text = profiler.format()
    assert "alpha" in text and "beta" in text and "items/s" in text


def test_stopwatch_measures_interval():
    with Stopwatch() as watch:
        sum(range(10000))
    assert watch.wall_seconds > 0.0
    assert watch.cpu_seconds >= 0.0


def test_profile_call_returns_result_and_report():
    result, report = profile_call(lambda: sum(range(100)), top=5)
    assert result == 4950
    assert "cumulative" in report or "function calls" in report


def test_profiled_run_populates_result_profile():
    config = SystemConfig(
        num_nodes=3,
        window_size=64,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=4.0),
        workload=WorkloadConfig(total_tuples=600, domain=256, arrival_rate=200.0),
        seed=5,
    )
    result = run_experiment(config, profiler=KernelProfiler())
    assert "system.run" in result.profile
    assert "node.local" in result.profile
    assert result.profile["node.local"]["items"] > 0
    # Unprofiled runs carry no accounting at all.
    assert run_experiment(config).profile == {}
