"""Microbenchmarks for the hot-path summary kernels.

Every benchmark times a fast kernel against the pre-optimization
reference of ``tests/reference_kernels.py`` (the per-update ``np.exp``
sliding DFT, the uncached hash family) over the same work, then asserts
a speedup floor, and writes every measurement to
``benchmarks/BENCH_kernels.json`` (a generated, gitignored report).  The
final test gates against the committed
``benchmarks/BENCH_kernels_baseline.json``: a kernel whose measured
speedup fell to less than half its committed baseline fails the run (the
CI bench smoke job's regression tripwire).

Scale with ``REPRO_BENCH_SCALE``: ``bench`` (default) finishes in
seconds; ``default``/``full`` use larger windows and streams.  Run as
``python -m pytest`` from the repository root (the references are
imported as ``tests.reference_kernels``).
"""

import json
import os
from pathlib import Path

from repro._rng import ensure_rng
from repro.dft.control import ControlVector
from repro.dft.sliding import SlidingDFT, low_frequency_bins
from repro.profiling import Stopwatch
from repro.sketches.hashing import FourWiseHashFamily
from tests.reference_kernels import ReferenceHashFamily, ReferenceSlidingDFT

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_kernels.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_kernels_baseline.json"

SCALES = {
    # window, tracked bins, stream length, sketch updates, sketch counters
    "bench": dict(window=4096, bins=64, stream=12_000, updates=6_000, counters=80),
    "default": dict(window=16_384, bins=128, stream=50_000, updates=20_000, counters=160),
    "full": dict(window=65_536, bins=256, stream=200_000, updates=60_000, counters=320),
}

RESULTS = {}
"""Accumulated measurements, written once by the final test."""


def _scale():
    return SCALES.get(os.environ.get("REPRO_BENCH_SCALE", "bench"), SCALES["bench"])


def _best_of(fn, repeats=3):
    """Minimum wall time over ``repeats`` runs of ``fn``.

    Summary structures are built *outside* the timed region: a twiddle
    table or hash bank is constructed once per query lifetime and
    amortized over the whole stream, while these loops measure the
    steady-state per-tuple maintenance cost Table 1 is about.
    """
    best = float("inf")
    for _ in range(repeats):
        with Stopwatch() as watch:
            fn()
        best = min(best, watch.wall_seconds)
    return max(best, 1e-9)


def _record(name, naive_seconds, fast_seconds, items):
    RESULTS[name] = {
        "naive_seconds": naive_seconds,
        "fast_seconds": fast_seconds,
        "speedup": naive_seconds / fast_seconds,
        "items": items,
        "fast_items_per_second": items / fast_seconds,
    }
    return RESULTS[name]["speedup"]


def _no_recompute_control():
    # Drift control off the table so the benchmark isolates the update
    # kernel itself (recompute cost is identical on both paths).
    return ControlVector(recompute_interval=10**9, drift_bound=1.0)


def test_sliding_dft_scalar_update_speedup():
    """Satellite: cached per-slot phase rows beat per-update np.exp."""
    scale = _scale()
    rng = ensure_rng(11)
    stream = rng.normal(scale=100.0, size=min(scale["stream"], 20_000))
    bins = low_frequency_bins(scale["window"], scale["bins"])

    def run(kernel):
        dft = kernel(
            scale["window"], tracked_bins=bins, control=_no_recompute_control()
        )

        def body():
            for value in stream:
                dft.update(value)
        return body

    speedup = _record(
        "sliding_dft_update",
        _best_of(run(ReferenceSlidingDFT)),
        _best_of(run(SlidingDFT)),
        stream.size,
    )
    assert speedup >= 1.2, "per-update speedup %.2fx regressed" % speedup


def _windowed_keys(count, rng):
    """A skewed key stream: duplicates dominate, like a Zipf window."""
    return rng.zipf(1.3, size=count) % 1024


def test_sign_cache_speedup():
    """Satellite: the LRU sign cache beats re-hashing a skewed stream."""
    scale = _scale()
    rng = ensure_rng(13)
    keys = _windowed_keys(scale["updates"], rng)

    def run(kernel):
        family = kernel(scale["counters"], rng=ensure_rng(17))

        def body():
            for key in keys:
                family.signs(int(key))
        return body

    speedup = _record(
        "sign_cache_lookup",
        _best_of(run(ReferenceHashFamily)),
        _best_of(run(FourWiseHashFamily)),
        keys.size,
    )
    assert speedup >= 1.5, "sign cache speedup %.2fx regressed" % speedup


def test_zz_write_report_and_gate_regressions():
    """Write BENCH_kernels.json; fail on >2x regression vs the baseline.

    (Named ``zz`` so pytest's file order runs it after every measurement.)
    """
    assert RESULTS, "no benchmark results collected"
    report = {
        "scale": os.environ.get("REPRO_BENCH_SCALE", "bench"),
        "kernels": RESULTS,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    baseline = json.loads(BASELINE_PATH.read_text())["kernels"]
    regressions = []
    for name, floor in baseline.items():
        measured = RESULTS.get(name, {}).get("speedup")
        if measured is None:
            continue
        if measured < floor["speedup"] / 2.0:
            regressions.append(
                "%s: %.2fx, baseline %.2fx" % (name, measured, floor["speedup"])
            )
    assert not regressions, "kernel speedups regressed >2x: %s" % "; ".join(
        regressions
    )
