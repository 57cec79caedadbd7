"""Benchmark configuration.

``REPRO_BENCH_SCALE`` selects the experiment scale for the simulation
benchmarks: ``bench`` (default, a few minutes for the whole suite),
``default`` (tens of minutes, smoother curves), or ``full`` (the closest
laptop approximation of the paper's sizes).
"""

import os

import pytest


@pytest.fixture(scope="session")
def bench_scale():
    return os.environ.get("REPRO_BENCH_SCALE", "bench")


@pytest.fixture
def four_cores():
    """Skip a 4-worker speedup measurement where it cannot mean anything:
    with fewer cores than workers it times the OS scheduler."""
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip("%d core(s) for 4 workers" % cores)
