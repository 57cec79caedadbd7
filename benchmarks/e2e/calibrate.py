"""Reference seconds: host time scaled by a concurrently measured speed factor.

The boxes this benchmark runs on are small shared VMs whose effective
speed drifts by tens of percent for seconds to minutes at a time with
``cpu_s / wall_s`` still at 0.98: six runs of one seed of one workload
spread 16-24 % (quartile distance over median) in raw wall time.  No
amount of in-run repetition removes a slowdown that lasts longer than
the run, so every host-time number is reported in *reference seconds*
instead: a fixed kernel -- a pure-Python loop plus a numpy inverse-FFT +
histogram loop, the two kinds of work the simulator does -- is sampled
every ~20 ms between chunks of measured work, and each stretch of wall
time is multiplied by ``REFERENCE_SAMPLE_S / mean sample time``.  On the
same six runs the spread drops to 1-3 %.

``REFERENCE_SAMPLE_S`` is the sample time of the 2-core box the
benchmark was defined on at its quietest, so on that box reference
seconds read as quiet-machine wall seconds.  On any other machine they
differ by one constant factor, which cancels in every comparison of two
commits on one machine.  Raw wall seconds are kept beside every
reference-second figure in the output file.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

REFERENCE_SAMPLE_S = 0.002

SAMPLE_EVERY_S = 0.02
"""Wall time of measured work between two samples (~10 % overhead)."""


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int) -> int:
        self.value = (self.value + amount) & 1023
        return self.value


class Calibrator:
    """The fixed kernel; allocates nothing the cyclic GC tracks."""

    def __init__(self) -> None:
        self._table = {index: index for index in range(512)}
        self._list = list(range(512))
        self._cell = _Cell()
        self._signal = np.arange(128, dtype=np.float64)

    def sample(self) -> float:
        """Run the kernel once; its wall time (~2 ms)."""
        start = time.perf_counter()
        table, values, cell = self._table, self._list, self._cell
        total = 0
        for index in range(2000):
            key = (index * 7919) & 511
            total += table[key] + values[key]
            table[key] = cell.bump(total)
        signal = self._signal
        for _ in range(12):
            rebuilt = np.fft.irfft(np.fft.rfft(signal), 128)
            np.histogram(np.clip(rebuilt, 1, 1024), bins=64, range=(1, 1025))
        return time.perf_counter() - start


class Meter:
    """Wall time of one stretch of work and the samples taken around it."""

    __slots__ = ("wall_s", "sample_s", "samples")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.sample_s = 0.0
        self.samples = 0

    def add(self, wall_s: float, sample_s: float) -> None:
        """``wall_s`` of work followed by one kernel sample."""
        self.wall_s += wall_s
        self.sample_s += sample_s
        self.samples += 1

    @property
    def speed_factor(self) -> float:
        """Reference seconds per wall second over this stretch (1.0 with
        no samples)."""
        if not self.samples:
            return 1.0
        return REFERENCE_SAMPLE_S * self.samples / self.sample_s

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.speed_factor


def one_shot(calibrator: Calibrator, wall_s: float, samples: int = 20) -> Meter:
    """Meter a short phase that ran in one piece: ``samples`` kernel
    samples taken right after it."""
    meter = Meter()
    meter.add(wall_s, calibrator.sample())
    for _ in range(samples - 1):
        meter.add(0.0, calibrator.sample())
    return meter


def pace(calibrator: Calibrator, step: Callable[[], bool], every_s: float = SAMPLE_EVERY_S) -> Meter:
    """Call ``step`` until it returns false, sampling the kernel before,
    after, and every ``every_s`` of work in between."""
    clock = time.perf_counter
    meter = Meter()
    meter.add(0.0, calibrator.sample())
    start = clock()
    while step():
        now = clock()
        if now - start >= every_s:
            meter.add(now - start, calibrator.sample())
            start = clock()
    now = clock()
    meter.add(now - start, calibrator.sample())
    return meter
