"""Unit tests for spectral similarity measures."""

import numpy as np
import pytest

from repro.core.correlation import (
    SimilarityMeasure,
    max_lag_correlation,
    similarity,
    spectral_correlation_coefficient,
)
from repro.errors import SummaryError
from tests.reference_decision import distribution_similarity


def full_map(signal):
    spectrum = np.fft.fft(signal)
    half = len(signal) // 2 + 1
    return {k: complex(spectrum[k]) for k in range(half)}


class TestSpectralCoefficient:
    def test_identical_signals_have_rho_one(self):
        rng = np.random.default_rng(0)
        signal = rng.normal(size=64)
        mapping = full_map(signal)
        rho = spectral_correlation_coefficient(mapping, mapping, 64)
        assert rho == pytest.approx(1.0, abs=1e-9)

    def test_matches_time_domain_correlation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=64)
        y = 0.6 * x + 0.8 * rng.normal(size=64)
        rho = spectral_correlation_coefficient(full_map(x), full_map(y), 64)
        xc, yc = x - x.mean(), y - y.mean()
        expected = float(np.dot(xc, yc) / np.sqrt(np.dot(xc, xc) * np.dot(yc, yc)))
        assert rho == pytest.approx(max(0.0, expected), abs=1e-6)

    def test_anticorrelation_clipped_to_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=32)
        assert spectral_correlation_coefficient(full_map(x), full_map(-x), 32) == 0.0

    def test_disjoint_bins_rejected(self):
        with pytest.raises(SummaryError):
            spectral_correlation_coefficient({1: 1j}, {2: 1j}, 8)

    def test_dc_only_maps_give_zero_when_centered(self):
        assert spectral_correlation_coefficient({0: 5 + 0j}, {0: 7 + 0j}, 8) == 0.0

    def test_truncated_maps_still_correlate_smooth_signals(self):
        n = np.arange(128)
        x = np.cos(2 * np.pi * 2 * n / 128) + 0.1 * np.cos(2 * np.pi * 40 * n / 128)
        truncated_x = {k: v for k, v in full_map(x).items() if k < 8}
        rho = spectral_correlation_coefficient(truncated_x, truncated_x, 128)
        assert rho == pytest.approx(1.0, abs=1e-9)


class TestMaxLagCorrelation:
    def test_shifted_signal_recovers_full_correlation(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=64)
        shifted = np.roll(base, 13)
        zero_lag = spectral_correlation_coefficient(full_map(base), full_map(shifted), 64)
        peak = max_lag_correlation(full_map(base), full_map(shifted), 64)
        assert peak == pytest.approx(1.0, abs=1e-6)
        assert peak > zero_lag

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=32), rng.normal(size=32)
        peak = max_lag_correlation(full_map(a), full_map(b), 32)
        assert 0.0 <= peak <= 1.0


class TestDistributionSimilarity:
    def test_same_distribution_scores_high(self):
        rng = np.random.default_rng(5)
        x = rng.integers(100, 200, size=128).astype(float)
        y = rng.integers(100, 200, size=128).astype(float)
        score = distribution_similarity(full_map(x), full_map(y), 128, domain=1000)
        assert score > 0.8

    def test_disjoint_ranges_score_low(self):
        rng = np.random.default_rng(6)
        x = rng.integers(1, 100, size=128).astype(float)
        y = rng.integers(900, 1000, size=128).astype(float)
        score = distribution_similarity(full_map(x), full_map(y), 128, domain=1000)
        assert score < 0.3

    def test_works_from_heavily_truncated_maps(self):
        rng = np.random.default_rng(7)
        x = rng.integers(1, 100, size=128).astype(float)
        y = rng.integers(900, 1000, size=128).astype(float)
        x_map = {k: v for k, v in full_map(x).items() if k < 4}
        y_map = {k: v for k, v in full_map(y).items() if k < 4}
        near = distribution_similarity(x_map, x_map, 128, domain=1000)
        far = distribution_similarity(x_map, y_map, 128, domain=1000)
        assert near > far

    def test_invalid_inputs(self):
        with pytest.raises(SummaryError):
            distribution_similarity({0: 1j}, {0: 1j}, 8, domain=0)
        with pytest.raises(SummaryError):
            distribution_similarity({0: 1j}, {0: 1j}, 8, domain=10, num_bins=0)


class TestDispatch:
    def test_each_measure_dispatches(self):
        rng = np.random.default_rng(8)
        mapping = full_map(rng.normal(size=32) + 100)
        for measure in (SimilarityMeasure.SPECTRAL, SimilarityMeasure.MAX_LAG):
            value = similarity(measure, mapping, mapping, 32)
            assert 0.0 <= value <= 1.0

    def test_distribution_requires_domain(self):
        # The DFT policy reads DISTRIBUTION for every peer at once from its
        # slot table; the pairwise dispatch refuses it.
        mapping = {0: 1 + 0j, 1: 2 + 0j}
        with pytest.raises(SummaryError):
            similarity(SimilarityMeasure.DISTRIBUTION, mapping, mapping, 8)
