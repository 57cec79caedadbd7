"""Unit tests for truncated-inverse-DFT reconstruction."""

import numpy as np
import pytest

from repro.dft.reconstruction import (
    TruncationMode,
    coefficient_budget,
    compress_spectrum,
    expand_spectrum,
    reconstruct_values,
    reconstruction_squared_errors,
)
from repro.errors import SummaryError


def smooth_signal(length=256, seed=0, tick=0.5):
    """A random-walk integer signal (the stock-data smoothness class)."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(0, tick, size=length)) + 1000
    return np.rint(walk)


class TestCoefficientBudget:
    def test_budget_is_w_over_kappa(self):
        assert coefficient_budget(1024, 256) == 4
        assert coefficient_budget(1024, 4) == 256

    def test_budget_at_least_one(self):
        assert coefficient_budget(16, 256) == 1

    def test_invalid_inputs(self):
        with pytest.raises(SummaryError):
            coefficient_budget(0, 4)
        with pytest.raises(SummaryError):
            coefficient_budget(16, 0.5)


class TestCompressExpand:
    def test_low_frequency_keeps_first_bins(self):
        spectrum = np.fft.fft(smooth_signal(64))
        kept = compress_spectrum(spectrum, 5)
        assert sorted(kept) == [0, 1, 2, 3, 4]

    def test_largest_magnitude_keeps_heaviest(self):
        w = 64
        n = np.arange(w)
        signal = 10 * np.cos(2 * np.pi * 7 * n / w)
        kept = compress_spectrum(
            np.fft.fft(signal), 1, mode=TruncationMode.LARGEST_MAGNITUDE
        )
        assert list(kept) == [7]

    def test_expand_restores_conjugate_symmetry(self):
        spectrum = np.fft.fft(smooth_signal(32))
        kept = compress_spectrum(spectrum, 4)
        full = expand_spectrum(kept, 32)
        assert full[32 - 2] == pytest.approx(np.conj(full[2]))
        recovered = np.fft.ifft(full)
        assert np.abs(recovered.imag).max() < 1e-9

    def test_expand_rejects_out_of_range_bins(self):
        with pytest.raises(SummaryError):
            expand_spectrum({9: 1 + 0j}, 8)

    def test_full_budget_reproduces_signal_exactly(self):
        signal = smooth_signal(64)
        spectrum = np.fft.fft(signal)
        kept = compress_spectrum(spectrum, 33)  # all non-redundant bins of W=64
        recovered = reconstruct_values(kept, 64, round_to_int=False)
        assert np.allclose(recovered, signal)


class TestReconstruction:
    def test_smooth_signal_reconstructs_losslessly_at_modest_budget(self):
        signal = smooth_signal(256)
        kept = compress_spectrum(np.fft.fft(signal), 96)
        recovered = reconstruct_values(kept, 256)
        assert np.mean(recovered == signal.astype(np.int64)) > 0.9

    def test_round_to_int_flag(self):
        signal = smooth_signal(64)
        kept = compress_spectrum(np.fft.fft(signal), 8)
        as_int = reconstruct_values(kept, 64)
        as_float = reconstruct_values(kept, 64, round_to_int=False)
        assert as_int.dtype == np.int64
        assert as_float.dtype == np.float64
        assert np.array_equal(as_int, np.rint(as_float).astype(np.int64))

    def test_key_set_contains_dominant_values(self):
        signal = np.full(32, 7.0)
        kept = compress_spectrum(np.fft.fft(signal), 2)
        assert set(reconstruct_values(kept, 32).tolist()) == {7}

    def test_squared_errors_shrink_with_budget(self):
        signal = smooth_signal(128)
        small = reconstruction_squared_errors(signal, 4).mean()
        large = reconstruction_squared_errors(signal, 32).mean()
        assert large <= small

    def test_errors_are_parseval_consistent(self):
        signal = smooth_signal(128)
        errors = reconstruction_squared_errors(signal, 16)
        spectrum = np.fft.fft(signal)
        kept = compress_spectrum(spectrum, 16)
        kept_bins = set(kept) | {(128 - k) % 128 for k in kept}
        dropped = [k for k in range(128) if k not in kept_bins]
        expected_total = np.sum(np.abs(spectrum[dropped]) ** 2) / 128
        assert errors.sum() == pytest.approx(expected_total)

    def test_lossless_fraction_bounds(self):
        signal = smooth_signal(128)

        def lossless_fraction(budget):
            """Positions recovered exactly after round-off (error < 0.5)."""
            return float(np.mean(reconstruction_squared_errors(signal, budget) < 0.25))

        assert 0.0 <= lossless_fraction(64) <= 1.0
        assert lossless_fraction(65) >= lossless_fraction(2) - 1e-12

    def test_invalid_signal_rejected(self):
        with pytest.raises(SummaryError):
            reconstruction_squared_errors([], 4)
        with pytest.raises(SummaryError):
            compress_spectrum(np.fft.fft(np.ones(8)), 0)
