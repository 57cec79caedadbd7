"""Tuple reconstruction from compressed DFT coefficients (Section 5.3).

A node transmits W/kappa coefficients of its attribute window; the receiver
rebuilds an estimate of the whole window with the inverse DFT (Equation 10)
and rounds to integers.  If every reconstructed value deviates by less than
0.5 the round-off recovers the original attributes exactly -- the paper's
"lossless compression up to a factor of 256" on stock data.

Equation 10 as printed keeps the *first* W/kappa coefficients and rescales
by kappa.  For a real-valued signal the first K bins and the conjugate
symmetry X[W-k] = conj(X[k]) together determine a real reconstruction, so
this module keeps the K lowest-frequency bins *and* mirrors their
conjugates before inverting (transmitting K complex numbers, reconstructing
from ~2K bins -- strictly more faithful per transmitted byte, and the only
reading under which kappa = 256 is nearly lossless as Figure 5/6 report).
The energy of dropped bins is simply absent, so no kappa rescaling is
required; normalization follows the standard inverse DFT.  A
largest-magnitude retention mode is also provided for rougher signals.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Mapping, Tuple, Union

import numpy as np

from repro.errors import SummaryError
from repro.dft.sliding import low_frequency_bins


class TruncationMode(enum.Enum):
    """Which coefficients survive compression."""

    LOW_FREQUENCY = "low_frequency"
    """Keep bins 0..K-1 (Equation 10's beta mask).  Best for smooth signals."""

    LARGEST_MAGNITUDE = "largest_magnitude"
    """Keep the K highest-energy bins among the non-redundant half."""


def coefficient_budget(window_size: int, kappa: float) -> int:
    """Number of transmitted coefficients W/kappa (at least 1)."""
    if window_size < 1:
        raise SummaryError("window_size must be >= 1")
    if kappa < 1:
        raise SummaryError("compression factor must be >= 1")
    return max(1, int(window_size / kappa))


def compress_spectrum(
    spectrum,
    budget: int,
    mode: TruncationMode = TruncationMode.LOW_FREQUENCY,
) -> Dict[int, complex]:
    """Select ``budget`` coefficients of a full spectrum for transmission.

    Only bins in the non-redundant half ``[0, W//2]`` are eligible; their
    conjugate mirrors are reconstructed for free at the receiver.
    """
    full = np.asarray(spectrum, dtype=np.complex128)
    if full.ndim != 1 or full.size == 0:
        raise SummaryError("spectrum must be a non-empty 1-D array")
    if budget < 1:
        raise SummaryError("budget must be >= 1")
    half = full.size // 2 + 1
    if mode is TruncationMode.LOW_FREQUENCY:
        kept = low_frequency_bins(full.size, budget)
    else:
        eligible = np.arange(half)
        order = np.argsort(np.abs(full[eligible]))[::-1]
        kept = np.sort(eligible[order[: min(budget, half)]])
    return {int(k): complex(full[k]) for k in kept}


CoefficientMap = Union[Mapping[int, complex], Tuple[np.ndarray, np.ndarray]]
"""Kept coefficients: a ``{bin: value}`` mapping, or a ``(bins, values)``
pair of arrays such as :meth:`repro.dft.sliding.SlidingDFT.coefficient_view`
returns."""


def _fill_spectrum(
    spectrum: np.ndarray, coefficients: CoefficientMap, window_size: int
) -> None:
    """Write kept coefficients and their conjugate mirrors into a zeroed row."""
    if isinstance(coefficients, tuple):
        bins, values = coefficients
        entries = zip(bins.tolist(), values.tolist())
    else:
        entries = coefficients.items()
    for k, value in entries:
        if not 0 <= k < window_size:
            raise SummaryError("coefficient index %d outside [0, %d)" % (k, window_size))
        spectrum[k] = value
        mirror = (window_size - k) % window_size
        if mirror != k:
            spectrum[mirror] = value.conjugate()


def expand_spectrum(coefficients: CoefficientMap, window_size: int) -> np.ndarray:
    """Rebuild a full conjugate-symmetric spectrum from kept coefficients.

    Missing bins are zero; every kept bin ``k`` in ``(0, W/2)`` also fills
    its mirror ``W - k`` with the conjugate, which guarantees a real
    inverse transform.
    """
    if window_size < 1:
        raise SummaryError("window_size must be >= 1")
    spectrum = np.zeros(window_size, dtype=np.complex128)
    _fill_spectrum(spectrum, coefficients, window_size)
    return spectrum


def reconstruct_values(
    coefficients: Union[CoefficientMap, List[CoefficientMap]],
    window_size: int,
    round_to_int: bool = True,
) -> np.ndarray:
    """Inverse-transform kept coefficients into estimated attribute values.

    Returns an int64 array when ``round_to_int`` (the membership-test path)
    and the raw float estimates otherwise (the error-analysis path).

    ``coefficients`` is one map (a length-W result) or a list of them: the
    list is inverted as one ``(len, W)`` batch, which pays ``np.fft.ifft``'s
    per-call cost once, and row ``i`` is bit for bit what
    ``coefficients[i]`` alone returns (the transform runs row by row on the
    same plan).
    """
    if isinstance(coefficients, list):
        if window_size < 1:
            raise SummaryError("window_size must be >= 1")
        spectrum = np.zeros((len(coefficients), window_size), dtype=np.complex128)
        for row, one in zip(spectrum, coefficients):
            _fill_spectrum(row, one, window_size)
    else:
        spectrum = expand_spectrum(coefficients, window_size)
    estimate = np.fft.ifft(spectrum).real
    if round_to_int:
        return np.rint(estimate).astype(np.int64)
    return estimate


def reconstruction_squared_errors(
    signal,
    budget: int,
    mode: TruncationMode = TruncationMode.LOW_FREQUENCY,
) -> np.ndarray:
    """Per-position squared reconstruction error (Figure 5's y-axis).

    Compresses ``signal``'s spectrum to ``budget`` coefficients, rebuilds
    the float estimate, and returns ``(x[n] - x_hat[n])**2`` for each n.
    """
    values = np.asarray(signal, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise SummaryError("signal must be a non-empty 1-D array")
    spectrum = np.fft.fft(values)
    kept = compress_spectrum(spectrum, budget, mode)
    estimate = reconstruct_values(kept, values.size, round_to_int=False)
    return (values - estimate) ** 2
