"""Unit tests for compression-factor selection."""

import numpy as np
import pytest

from repro.core.compression import (
    DEFAULT_KAPPA_GRID,
    LOSSLESS_MSE_THRESHOLD,
    choose_compression_factor,
    mse_statistics,
)
from repro.dft.reconstruction import compress_spectrum
from repro.errors import SummaryError


def smooth_signal(length=512, seed=0, tick=0.5):
    rng = np.random.default_rng(seed)
    return np.rint(np.cumsum(rng.normal(0, tick, size=length)) + 500)


def noisy_signal(length=512, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10_000, size=length).astype(float)


def spectral_mse(signal, budget):
    """Parseval evaluation of the reconstruction MSE, straight from the
    spectrum: the residual ``x - x_hat`` has exactly the dropped
    coefficients as its spectrum (kept bins and their mirrors cancel), so
    its energy is ``sum_dropped |X(k)|^2 / W`` and the mean squared error
    divides by W once more."""
    values = np.asarray(signal, dtype=np.float64)
    spectrum = np.fft.fft(values)
    kept_bins = set(compress_spectrum(spectrum, budget))
    for k in list(kept_bins):
        kept_bins.add((values.size - k) % values.size)
    mask = np.ones(values.size, dtype=bool)
    mask[list(kept_bins)] = False
    return float(np.sum(np.abs(spectrum[mask]) ** 2)) / values.size**2


def test_empirical_matches_spectral_mse():
    signal = smooth_signal()
    for point in mse_statistics(signal, (128, 32, 8)):  # budgets 4, 16, 64
        spectral = spectral_mse(signal, point.budget)
        assert point.mean_mse == pytest.approx(spectral, rel=1e-9)


def test_mse_decreases_with_budget():
    signal = smooth_signal()
    points = mse_statistics(signal, (256, 64, 16, 4))  # budgets 2, 8, 32, 128
    values = [point.mean_mse for point in points]
    assert values == sorted(values, reverse=True)


def test_mse_statistics_structure():
    signal = smooth_signal()
    points = mse_statistics(signal, (2, 8, 32))
    assert [p.kappa for p in points] == [2, 8, 32]
    for point in points:
        assert point.budget == max(1, 512 // point.kappa)
        assert point.mean_mse >= 0
        assert 0.0 <= point.lossless_fraction <= 1.0


def test_is_lossless_reflects_threshold():
    signal = smooth_signal()
    points = mse_statistics(signal, (2,))
    assert points[0].is_lossless == (points[0].mean_mse < LOSSLESS_MSE_THRESHOLD)


def test_choose_factor_on_smooth_signal_is_aggressive():
    signal = smooth_signal(tick=0.2)
    chosen = choose_compression_factor(signal, (2, 4, 8, 16, 32))
    assert chosen >= 8


def test_choose_factor_monotone_in_threshold():
    signal = smooth_signal()
    loose = choose_compression_factor(signal, DEFAULT_KAPPA_GRID, threshold=100.0)
    tight = choose_compression_factor(signal, DEFAULT_KAPPA_GRID, threshold=0.01)
    assert loose >= tight


def test_choose_factor_on_white_noise_is_conservative():
    signal = noisy_signal()
    chosen = choose_compression_factor(signal, (2, 4, 8))
    assert chosen == 2  # best effort: nothing meets the threshold


def test_invalid_inputs():
    with pytest.raises(SummaryError):
        mse_statistics([], (2,))
    with pytest.raises(SummaryError):
        mse_statistics(smooth_signal(), (0,))
