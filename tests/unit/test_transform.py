"""Unit tests for the DFT convention every module shares: numpy's
unnormalized forward transform (Equation 2), held against the textbook
evaluations in ``tests/reference_dft.py``."""

import numpy as np
import pytest

from repro.errors import SummaryError
from tests.reference_dft import dft_direct, inverse_dft

dft = np.fft.fft


def test_direct_matches_fft():
    rng = np.random.default_rng(0)
    signal = rng.normal(size=64)
    assert np.allclose(dft_direct(signal), dft(signal))


def test_direct_matches_fft_odd_length():
    rng = np.random.default_rng(1)
    signal = rng.normal(size=33)
    assert np.allclose(dft_direct(signal), dft(signal))


def test_round_trip():
    rng = np.random.default_rng(2)
    signal = rng.integers(0, 100, size=128).astype(float)
    recovered = inverse_dft(dft(signal))
    assert np.allclose(recovered.real, signal)
    assert np.allclose(recovered.imag, 0.0, atol=1e-9)


def test_dc_coefficient_is_sum():
    signal = np.array([1.0, 2.0, 3.0, 4.0])
    assert dft(signal)[0] == pytest.approx(10.0)


def test_constant_signal_has_only_dc():
    spectrum = dft(np.full(16, 5.0))
    assert spectrum[0] == pytest.approx(80.0)
    assert np.allclose(spectrum[1:], 0.0, atol=1e-9)


def test_pure_tone_lands_in_one_bin():
    w = 32
    n = np.arange(w)
    signal = np.cos(2 * np.pi * 3 * n / w)
    magnitude = np.abs(dft(signal))
    assert magnitude[3] == pytest.approx(w / 2)
    assert magnitude[w - 3] == pytest.approx(w / 2)
    others = np.delete(magnitude, [3, w - 3])
    assert np.abs(others).max() < 1e-9


def test_conjugate_symmetry_for_real_signals():
    rng = np.random.default_rng(3)
    signal = rng.normal(size=20)
    spectrum = dft(signal)
    for k in range(1, 10):
        assert spectrum[20 - k] == pytest.approx(np.conj(spectrum[k]))


def test_linearity():
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=32), rng.normal(size=32)
    assert np.allclose(dft(2 * x + 3 * y), 2 * dft(x) + 3 * dft(y))


def test_parseval():
    rng = np.random.default_rng(5)
    signal = rng.normal(size=64)
    spectrum = dft(signal)
    assert np.sum(signal**2) == pytest.approx(np.sum(np.abs(spectrum) ** 2) / 64)


@pytest.mark.parametrize("bad", [[], [[1.0, 2.0]]])
def test_invalid_inputs_rejected(bad):
    with pytest.raises(SummaryError):
        dft_direct(bad)
    with pytest.raises(SummaryError):
        inverse_dft(np.asarray(bad, dtype=complex))
