"""Compression-factor selection (Section 5.3, Equations 10-12).

The DFTT algorithm must pick a compression factor kappa: transmit
W/kappa coefficients and still reconstruct remote attribute values to
within +-0.5 so that integer round-off is lossless.  The paper's criterion
is ``E[MSE] < 0.25`` (Figure 6 draws the line; kappa = 256 is the knee for
the stock stream).

The MSE is evaluated empirically: reconstruct the signal and average the
squared errors (Equation 11 with the empirical distribution P).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.dft.reconstruction import (
    TruncationMode,
    coefficient_budget,
    reconstruction_squared_errors,
)
from repro.errors import SummaryError

LOSSLESS_MSE_THRESHOLD = 0.25
"""E[MSE] below this recovers integers exactly after round-off."""

DEFAULT_KAPPA_GRID = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
"""The compression factors swept by Figures 6 and 10(a)."""


@dataclass(frozen=True)
class CompressionSweepPoint:
    """One row of Figure 6: MSE statistics at a compression factor."""

    kappa: int
    budget: int
    mean_mse: float
    std_mse: float
    lossless_fraction: float

    @property
    def is_lossless(self) -> bool:
        """Whether this factor meets the paper's E[MSE] < 0.25 criterion."""
        return self.mean_mse < LOSSLESS_MSE_THRESHOLD


def mse_statistics(
    signal,
    kappas: Sequence[int] = DEFAULT_KAPPA_GRID,
    mode: TruncationMode = TruncationMode.LOW_FREQUENCY,
) -> Tuple[CompressionSweepPoint, ...]:
    """Mean/std of per-position squared error across compression factors."""
    values = np.asarray(signal, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise SummaryError("signal must be a non-empty 1-D array")
    points = []
    for kappa in kappas:
        if kappa < 1:
            raise SummaryError("compression factors must be >= 1")
        budget = coefficient_budget(values.size, kappa)
        errors = reconstruction_squared_errors(values, budget, mode)
        points.append(
            CompressionSweepPoint(
                kappa=int(kappa),
                budget=budget,
                mean_mse=float(errors.mean()),
                std_mse=float(errors.std()),
                lossless_fraction=float(np.mean(errors < LOSSLESS_MSE_THRESHOLD)),
            )
        )
    return tuple(points)


def choose_compression_factor(
    signal,
    kappas: Sequence[int] = DEFAULT_KAPPA_GRID,
    threshold: float = LOSSLESS_MSE_THRESHOLD,
    mode: TruncationMode = TruncationMode.LOW_FREQUENCY,
) -> int:
    """Largest compression factor whose mean MSE stays under ``threshold``.

    This is the tuning rule of Section 5.3: maximize compression subject to
    the lossless round-off criterion.  If even the smallest factor violates
    the threshold, that smallest factor is returned (best effort), matching
    the paper's "best-effort epsilon reduction" stance.
    """
    points = mse_statistics(signal, sorted(set(int(k) for k in kappas)), mode)
    feasible = [p.kappa for p in points if p.mean_mse < threshold]
    if feasible:
        return max(feasible)
    return min(p.kappa for p in points)
