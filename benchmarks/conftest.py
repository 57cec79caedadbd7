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
