"""Unit tests for the incremental (sliding) DFT."""

import numpy as np
import pytest

from repro.dft.control import ControlVector
from repro.dft.sliding import SlidingDFT, low_frequency_bins
from repro.errors import SummaryError


def no_recompute(window):
    """A control vector that effectively never triggers recomputation."""
    return ControlVector(recompute_interval=10**9, drift_bound=1.0, unit_roundoff=1e-16)


class TestLowFrequencyBins:
    def test_returns_first_k(self):
        assert low_frequency_bins(16, 4).tolist() == [0, 1, 2, 3]

    def test_clamped_to_nonredundant_half(self):
        assert low_frequency_bins(8, 100).tolist() == [0, 1, 2, 3, 4]

    def test_invalid_inputs(self):
        with pytest.raises(SummaryError):
            low_frequency_bins(0, 1)
        with pytest.raises(SummaryError):
            low_frequency_bins(8, 0)


class TestSlidingDFT:
    def test_growing_window_matches_zero_padded_fft(self):
        sliding = SlidingDFT(8, control=no_recompute(8))
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        for value in values:
            sliding.update(value)
        padded = np.concatenate([values, np.zeros(3)])
        assert np.allclose(sliding.coefficient_view()[1], np.fft.fft(padded))

    def test_sliding_matches_buffer_fft(self):
        rng = np.random.default_rng(0)
        sliding = SlidingDFT(16, control=no_recompute(16))
        stream = rng.integers(0, 50, size=100).astype(float)
        for value in stream:
            sliding.update(value)
        expected = np.fft.fft(sliding.buffer_values())
        assert np.allclose(sliding.coefficient_view()[1], expected, atol=1e-9)

    def test_magnitudes_match_chronological_window_fft(self):
        """Slot anchoring is a pure phase shift of the chronological DFT."""
        rng = np.random.default_rng(0)
        sliding = SlidingDFT(16, control=no_recompute(16))
        stream = rng.integers(0, 50, size=100).astype(float)
        for value in stream:
            sliding.update(value)
        chronological = np.fft.fft(stream[-16:])
        assert np.allclose(
            np.abs(sliding.coefficient_view()[1]), np.abs(chronological), atol=1e-9
        )

    def test_tracked_subset_matches_full_bins(self):
        rng = np.random.default_rng(1)
        bins = [0, 2, 5]
        sliding = SlidingDFT(16, tracked_bins=bins, control=no_recompute(16))
        stream = rng.normal(size=60)
        for value in stream:
            sliding.update(value)
        expected = np.fft.fft(sliding.buffer_values())[bins]
        assert np.allclose(sliding.coefficient_view()[1], expected, atol=1e-9)

    def test_bins_deduplicated_and_sorted(self):
        sliding = SlidingDFT(8, tracked_bins=[5, 1, 1, 3])
        assert sliding.coefficient_view()[0].tolist() == [1, 3, 5]

    def test_invalid_bins_rejected(self):
        with pytest.raises(SummaryError):
            SlidingDFT(8, tracked_bins=[8])
        with pytest.raises(SummaryError):
            SlidingDFT(8, tracked_bins=[-1])
        with pytest.raises(SummaryError):
            SlidingDFT(8, tracked_bins=[])
        with pytest.raises(SummaryError):
            SlidingDFT(0)

    def test_drift_is_tiny_without_recompute(self):
        rng = np.random.default_rng(2)
        sliding = SlidingDFT(32, control=no_recompute(32))
        sliding.extend(rng.integers(0, 1000, size=5000).astype(float))
        _, coefficients = sliding.coefficient_view()
        exact = np.fft.fft(sliding.buffer_values())
        assert np.max(np.abs(coefficients - exact)) < 1e-6

    def test_recompute_resets_drift_counter(self):
        sliding = SlidingDFT(8, control=ControlVector(recompute_interval=10))
        sliding.extend(range(25))
        assert sliding.full_recomputes >= 2
        assert sliding.updates_since_recompute < 10

    def test_control_vector_cadence(self):
        sliding = SlidingDFT(8, control=ControlVector(recompute_interval=5))
        sliding.extend(range(5))
        assert sliding.full_recomputes == 1
        sliding.extend(range(4))
        assert sliding.full_recomputes == 1
        sliding.update(1.0)
        assert sliding.full_recomputes == 2

    def test_coefficient_map_alignment(self):
        sliding = SlidingDFT(8, tracked_bins=[0, 3])
        sliding.extend([1.0, 2.0])
        mapping = sliding.coefficient_map()
        assert set(mapping) == {0, 3}
        coefficients = sliding.coefficient_view()[1]
        assert mapping[0] == coefficients[0]
        assert mapping[3] == coefficients[1]

    def test_window_values_chronological_order(self):
        sliding = SlidingDFT(3)
        sliding.extend([1.0, 2.0, 3.0, 4.0])
        # The window is [2, 3, 4] in arrival order; slot order differs:
        # 4.0 overwrote slot 0.
        assert sliding.buffer_values().tolist() == [4.0, 2.0, 3.0]

    def test_buffer_values_while_growing(self):
        sliding = SlidingDFT(4)
        sliding.extend([1.0, 2.0])
        assert sliding.buffer_values().tolist() == [1.0, 2.0]

    def test_is_full_and_len(self):
        sliding = SlidingDFT(4)
        assert len(sliding.buffer_values()) == 0
        sliding.extend([1, 2, 3, 4])
        assert len(sliding.buffer_values()) == 4
        sliding.update(5)
        assert len(sliding.buffer_values()) == 4

    def test_dc_bin_tracks_window_sum(self):
        sliding = SlidingDFT(4, tracked_bins=[0], control=no_recompute(4))
        sliding.extend([1.0, 2.0, 3.0, 4.0, 5.0])
        assert sliding.coefficient_view()[1][0].real == pytest.approx(2 + 3 + 4 + 5)
