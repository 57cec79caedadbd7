"""Table 1: CPU cost of full DFT vs incremental DFT vs AGMS updates.

The paper reports seconds of CPU time to maintain each summary per tuple
over a long stream, for windows of 80 k to 1 M tuples, on a 400 MHz
UltraSPARC.  We reproduce the *shape* on this machine: the full transform
recomputed per tuple is orders of magnitude more expensive than the
incremental DFT, whose per-update cost is comparable to AGMS sketch
maintenance; all three grow with W (iDFT and AGMS because the summary
size is W/kappa).

Measured quantity: wall-clock seconds to apply ``updates`` per-tuple
maintenance steps at window size W --

* ``DFT``  -- one full FFT recomputation per arriving tuple;
* ``iDFT`` -- one sliding-DFT step over the W/kappa tracked bins;
* ``AGMS`` -- one +1 / -1 sketch update pair (arrival + eviction) on a
  sketch of W/kappa * 5 counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro._rng import ensure_rng, spawn
from repro.dft.control import ControlVector
from repro.dft.sliding import SlidingDFT, low_frequency_bins
from repro.experiments.reporting import format_table
from repro.profiling import Stopwatch
from repro.sketches.agms import AgmsSketch, SketchShape

DEFAULT_WINDOWS = (8_000, 25_000, 50_000, 100_000)
"""The paper's 80 k..1 M column scaled by 10 for wall-clock sanity."""


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1 (seconds of CPU time).

    ``*_seconds`` are wall-clock, ``*_cpu_seconds`` are process CPU time
    over the same interval (the paper reports CPU seconds; on an
    otherwise-idle machine the two track each other closely).
    """

    window_size: int
    full_dft_seconds: float
    incremental_dft_seconds: float
    agms_seconds: float
    full_dft_cpu_seconds: float = 0.0
    incremental_dft_cpu_seconds: float = 0.0
    agms_cpu_seconds: float = 0.0

    @property
    def speedup_incremental(self) -> float:
        if self.incremental_dft_seconds <= 0:
            return float("inf")
        return self.full_dft_seconds / self.incremental_dft_seconds


def _time_full_dft(signal: np.ndarray, window: int, updates: int) -> Stopwatch:
    """Full FFT recomputation per arriving tuple."""
    with Stopwatch() as watch:
        for index in range(updates):
            segment = signal[index : index + window]
            np.fft.fft(segment)
    return watch


def _time_incremental_dft(
    signal: np.ndarray, window: int, updates: int, kappa: int
) -> Stopwatch:
    bins = low_frequency_bins(window, max(1, window // kappa))
    sliding = SlidingDFT(
        window,
        tracked_bins=bins,
        control=ControlVector.default(window),
    )
    sliding.extend(signal[:window])
    with Stopwatch() as watch:
        for value in signal[window : window + updates]:
            sliding.update(float(value))
    return watch


def _time_agms(
    signal: np.ndarray, window: int, updates: int, kappa: int, rng
) -> Stopwatch:
    shape = SketchShape.from_total(max(5, (window // kappa) * 5))
    sketch = AgmsSketch(shape, rng=rng)
    for value in signal[:window]:
        sketch.update(int(value), +1)
    with Stopwatch() as watch:
        for index in range(updates):
            sketch.update(int(signal[window + index]), +1)
            sketch.update(int(signal[index]), -1)
    return watch


def _measure_window(window: int, updates: int, kappa: int, rng) -> Table1Row:
    """One window-size row, measured on its own child generator."""
    signal = rng.integers(1, 2**19, size=window + updates).astype(np.float64)
    full = _time_full_dft(signal, window, updates)
    incremental = _time_incremental_dft(signal, window, updates, kappa)
    agms = _time_agms(signal, window, updates, kappa, rng)
    return Table1Row(
        window_size=window,
        full_dft_seconds=full.wall_seconds,
        incremental_dft_seconds=incremental.wall_seconds,
        agms_seconds=agms.wall_seconds,
        full_dft_cpu_seconds=full.cpu_seconds,
        incremental_dft_cpu_seconds=incremental.cpu_seconds,
        agms_cpu_seconds=agms.cpu_seconds,
    )


def run(
    windows: Sequence[int] = DEFAULT_WINDOWS,
    updates: int = 200,
    kappa: int = 256,
    seed: int = 2007,
) -> List[Table1Row]:
    """Measure the three maintenance strategies at each window size.

    Rows are *timings*, so they are never cached and the windows run one
    after another in this process: windows measured side by side would
    contend for cores and skew each other's seconds.  Each window gets
    its own child generator (``spawn`` from the root seed, indexed by
    position).
    """
    windows = list(windows)
    children = spawn(ensure_rng(seed), len(windows))
    return [
        _measure_window(window, updates, kappa, rng)
        for window, rng in zip(windows, children)
    ]


def format_result(rows: Sequence[Table1Row]) -> str:
    """Render the measured Table 1."""
    return format_table(
        ["W", "DFT (s)", "iDFT (s)", "AGMS (s)", "iDFT cpu", "AGMS cpu", "DFT/iDFT"],
        [
            (
                row.window_size,
                row.full_dft_seconds,
                row.incremental_dft_seconds,
                row.agms_seconds,
                row.incremental_dft_cpu_seconds,
                row.agms_cpu_seconds,
                row.speedup_incremental,
            )
            for row in rows
        ],
    )
