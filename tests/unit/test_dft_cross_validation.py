"""Cross-validation of the three DFT evaluation paths.

The FFT wrapper, the direct O(W^2) evaluation, Goertzel's recurrence, and
the anchored sliding update are four independent implementations of the
same mathematics; agreement among all of them is the library's strongest
correctness evidence.  This module also guards the alignment contract
between the sliding DFT's slot buffer and the truncated-inverse
reconstruction, which DFTT's self-calibrated tolerance depends on.
"""

import numpy as np
import pytest

from repro.dft.control import ControlVector
from repro.dft.reconstruction import reconstruct_values
from repro.dft.sliding import SlidingDFT, low_frequency_bins
from tests.reference_dft import dft_direct
from tests.reference_goertzel import goertzel_bins


def no_recompute():
    return ControlVector(recompute_interval=10**9, drift_bound=1.0)


def test_four_way_agreement():
    rng = np.random.default_rng(0)
    signal = rng.integers(0, 500, size=48).astype(float)
    bins = [0, 1, 5, 11, 23]

    via_fft = np.fft.fft(signal)[bins]
    via_direct = dft_direct(signal)[bins]
    via_goertzel = goertzel_bins(signal, bins)
    sliding = SlidingDFT(48, tracked_bins=bins, control=no_recompute())
    sliding.extend(signal)  # exactly fills: slot order == chronological
    _, via_sliding = sliding.coefficient_view()

    assert np.allclose(via_fft, via_direct, atol=1e-7)
    assert np.allclose(via_fft, via_goertzel, atol=1e-6)
    assert np.allclose(via_fft, via_sliding, atol=1e-7)


def test_reconstruction_aligns_with_slot_buffer():
    """DFTT compares reconstruct_values(...) against buffer_values()
    position by position; after the window wraps, both must live in slot
    order for the comparison (and the tolerance) to be meaningful."""
    rng = np.random.default_rng(1)
    window = 32
    bins = low_frequency_bins(window, window // 2 + 1)  # full information
    sliding = SlidingDFT(window, tracked_bins=bins, control=no_recompute())
    values = rng.integers(0, 100, size=81).astype(float)
    sliding.extend(values)  # wraps twice
    chronological = values[-window:]

    reconstructed = reconstruct_values(
        sliding.coefficient_map(), window, round_to_int=False
    )
    assert np.allclose(reconstructed, sliding.buffer_values(), atol=1e-6)
    # Chronological order differs from slot order after wrapping...
    assert not np.array_equal(sliding.buffer_values(), chronological)
    # ...but holds the same multiset of values.
    assert sorted(sliding.buffer_values()) == sorted(chronological)


def test_truncated_reconstruction_still_tracks_buffer_loosely():
    """With a realistic budget, the reconstruction error DFTT measures on
    its own buffer is a meaningful (finite, signal-scaled) quantity."""
    rng = np.random.default_rng(2)
    window = 64
    budget = 8
    sliding = SlidingDFT(
        window, tracked_bins=low_frequency_bins(window, budget), control=no_recompute()
    )
    base = 1000 + np.cumsum(rng.normal(0, 1.0, size=200))
    sliding.extend(np.rint(base))
    estimate = reconstruct_values(sliding.coefficient_map(), window, round_to_int=False)
    errors = np.abs(estimate - sliding.buffer_values())
    assert np.isfinite(errors).all()
    assert errors.mean() < np.abs(sliding.buffer_values()).mean()
