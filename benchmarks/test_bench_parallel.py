"""Benchmark for the run-result cache.

One measurement over a grid of simulation cells: ``cache_warm_sweep``,
a warm second sweep vs the cold first one that filled the cache.  A warm
sweep does zero simulations, so the floor is meaningfully above 1x on
any machine.  There is no ``--jobs`` speedup gate: with fewer cores than
workers it can only sit below 1x, where it cannot fail.
``serial == --jobs == cached`` is pinned byte for byte by
``tests/integration/test_parallel_execution.py``.

The measurement lands in ``benchmarks/BENCH_parallel.json`` (generated,
gitignored); the final test gates against the committed
``BENCH_parallel_baseline.json`` at half the baseline value, the same
tripwire discipline as ``test_bench_kernels.py``.
"""

import json
from pathlib import Path

from repro.config import Algorithm
from repro.experiments.harness import get_scale, system_config
from repro.parallel import RunCache, run_configs
from repro.profiling import Stopwatch

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_parallel.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_parallel_baseline.json"

RESULTS = {}
"""Accumulated measurements, written once by the final test."""


def _grid():
    """Eight smoke-scale cells: enough work that cache I/O is not the
    whole measurement, small enough for the bench smoke job."""
    preset = get_scale("smoke")
    return [
        system_config(preset, algorithm, num_nodes, seed_offset=index)
        for index, num_nodes in enumerate((2, 3, 4, 5))
        for algorithm in (Algorithm.DFTT, Algorithm.ROUND_ROBIN)
    ]


def _timed(fn):
    with Stopwatch() as watch:
        value = fn()
    return value, max(watch.wall_seconds, 1e-9)


def _record(name, base_seconds, fast_seconds, cells):
    RESULTS[name] = {
        "base_seconds": base_seconds,
        "fast_seconds": fast_seconds,
        "speedup": base_seconds / fast_seconds,
        "cells": cells,
    }
    return RESULTS[name]["speedup"]


def test_cache_warm_sweep_speedup(tmp_path):
    """A warm sweep (zero simulations) vs the cold sweep that filled it."""
    configs = _grid()
    cold_cache = RunCache(str(tmp_path))
    cold, cold_seconds = _timed(lambda: run_configs(configs, cache=cold_cache))
    warm_cache = RunCache(str(tmp_path))
    warm, warm_seconds = _timed(lambda: run_configs(configs, cache=warm_cache))
    assert warm_cache.stats()["misses"] == 0, "warm sweep missed the cache"
    assert cold == warm, "cache-served sweep diverged from the cold one"
    speedup = _record("cache_warm_sweep", cold_seconds, warm_seconds, len(configs))
    assert speedup >= 2.5, (
        "warm cache sweep only %.1fx faster than computing" % speedup
    )


def test_zz_write_report_and_gate_regressions():
    """Write BENCH_parallel.json; fail on >2x regression vs the baseline.

    (Named ``zz`` so pytest's file order runs it after every measurement.)
    """
    assert RESULTS, "no benchmark results collected"
    report = {
        "scale": "smoke",
        "parallel": RESULTS,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    baseline = json.loads(BASELINE_PATH.read_text())["parallel"]
    regressions = []
    for name, floor in baseline.items():
        measured = RESULTS.get(name, {}).get("speedup")
        if measured is None:
            continue
        if measured < floor["speedup"] / 2.0:
            regressions.append(
                "%s: %.2fx, baseline %.2fx" % (name, measured, floor["speedup"])
            )
    assert not regressions, "parallel speedups regressed >2x: %s" % "; ".join(
        regressions
    )
