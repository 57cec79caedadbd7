"""Unit tests for Goertzel single-bin DFT evaluation (the test oracle in
``tests/reference_goertzel.py``)."""

import numpy as np
import pytest

from repro.errors import SummaryError
from tests.reference_goertzel import goertzel_bin, goertzel_bins, goertzel_power


def test_matches_fft_every_bin():
    rng = np.random.default_rng(0)
    signal = rng.normal(size=32)
    spectrum = np.fft.fft(signal)
    for k in range(32):
        assert goertzel_bin(signal, k) == pytest.approx(spectrum[k], abs=1e-8)


def test_matches_fft_odd_length():
    rng = np.random.default_rng(1)
    signal = rng.normal(size=17)
    spectrum = np.fft.fft(signal)
    for k in (0, 1, 8, 16):
        assert goertzel_bin(signal, k) == pytest.approx(spectrum[k], abs=1e-8)


def test_dc_bin_is_sum():
    signal = np.array([1.0, 2.0, 3.0])
    assert goertzel_bin(signal, 0) == pytest.approx(6.0)


def test_bins_batch():
    rng = np.random.default_rng(2)
    signal = rng.normal(size=16)
    values = goertzel_bins(signal, [0, 3, 7])
    spectrum = np.fft.fft(signal)
    assert np.allclose(values, spectrum[[0, 3, 7]], atol=1e-8)


def test_power_matches_magnitude_squared():
    rng = np.random.default_rng(3)
    signal = rng.normal(size=24)
    spectrum = np.fft.fft(signal)
    for k in (0, 1, 5, 12):
        assert goertzel_power(signal, k) == pytest.approx(
            abs(spectrum[k]) ** 2, rel=1e-8, abs=1e-8
        )


def test_pure_tone_detection():
    w = 64
    n = np.arange(w)
    signal = np.sin(2 * np.pi * 9 * n / w)
    assert goertzel_power(signal, 9) > 100 * goertzel_power(signal, 10)


def test_invalid_inputs():
    with pytest.raises(SummaryError):
        goertzel_bin([], 0)
    with pytest.raises(SummaryError):
        goertzel_bin([1.0, 2.0], 2)
    with pytest.raises(SummaryError):
        goertzel_power([1.0], -1)
