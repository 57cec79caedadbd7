"""Goertzel's algorithm: single-bin DFT evaluation, kept as a test oracle.

Goertzel's recurrence evaluates one bin in O(W) multiply-adds without
computing the full transform:

    s[n] = x[n] + 2*cos(2*pi*k/W) * s[n-1] - s[n-2]
    X[k] = s[W-1] - exp(-2j*pi*k/W) * s[W-2]

No code under ``src/`` evaluates DFT bins this way: the production path
is the FFT (recomputation) plus the anchored sliding update (per tuple).
Goertzel is the *independent* reference ``tests/unit/test_goertzel.py``
and ``tests/unit/test_dft_cross_validation.py`` check those paths
against (three algorithms agreeing is a much stronger correctness signal
than two).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import SummaryError


def goertzel_bin(x, bin_index: int) -> complex:
    """Evaluate DFT coefficient ``X[bin_index]`` of ``x`` by recurrence."""
    signal = np.asarray(x, dtype=np.float64)
    if signal.ndim != 1 or signal.size == 0:
        raise SummaryError("Goertzel input must be a non-empty 1-D array")
    w = signal.size
    if not 0 <= bin_index < w:
        raise SummaryError("bin index %d outside [0, %d)" % (bin_index, w))
    omega = 2.0 * math.pi * bin_index / w
    coefficient = 2.0 * math.cos(omega)
    s_prev, s_prev2 = 0.0, 0.0
    for value in signal:
        s = value + coefficient * s_prev - s_prev2
        s_prev2 = s_prev
        s_prev = s
    # X[k] = (s[W-1] - e^{-j*omega} * s[W-2]) * e^{-j*omega*(W-1)}
    tail = complex(s_prev - s_prev2 * math.cos(omega), s_prev2 * math.sin(omega))
    return tail * complex(math.cos(omega * (w - 1)), -math.sin(omega * (w - 1)))


def goertzel_bins(x, bins: Sequence[int]) -> np.ndarray:
    """Evaluate several DFT coefficients (one recurrence pass each)."""
    return np.asarray([goertzel_bin(x, int(k)) for k in bins], dtype=np.complex128)


def goertzel_power(x, bin_index: int) -> float:
    """Squared magnitude |X[k]|^2 without the final phase correction.

    The classic tone-detection shortcut: the power needs only the two
    final recurrence states, skipping the complex arithmetic entirely.
    """
    signal = np.asarray(x, dtype=np.float64)
    if signal.ndim != 1 or signal.size == 0:
        raise SummaryError("Goertzel input must be a non-empty 1-D array")
    w = signal.size
    if not 0 <= bin_index < w:
        raise SummaryError("bin index %d outside [0, %d)" % (bin_index, w))
    omega = 2.0 * math.pi * bin_index / w
    coefficient = 2.0 * math.cos(omega)
    s_prev, s_prev2 = 0.0, 0.0
    for value in signal:
        s = value + coefficient * s_prev - s_prev2
        s_prev2 = s_prev
        s_prev = s
    return s_prev * s_prev + s_prev2 * s_prev2 - coefficient * s_prev * s_prev2
