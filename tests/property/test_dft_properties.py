"""Property-based tests for the DFT substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dft.control import ControlVector
from repro.dft.reconstruction import (
    compress_spectrum,
    expand_spectrum,
    reconstruct_values,
    reconstruction_squared_errors,
)
from repro.dft.sliding import SlidingDFT
from tests.reference_dft import dft_direct, inverse_dft

signals = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)

int_signals = st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=64)


@given(signals)
@settings(max_examples=60)
def test_direct_and_fft_agree(signal):
    scale = max(1.0, float(np.max(np.abs(signal))))
    assert np.allclose(dft_direct(signal), np.fft.fft(signal), atol=1e-6 * scale * len(signal))


@given(signals)
@settings(max_examples=60)
def test_inverse_round_trip(signal):
    recovered = inverse_dft(np.fft.fft(signal))
    scale = max(1.0, float(np.max(np.abs(signal))))
    assert np.allclose(recovered.real, signal, atol=1e-9 * scale * len(signal))
    assert np.max(np.abs(recovered.imag)) < 1e-9 * scale * len(signal) + 1e-12


@given(int_signals, st.integers(min_value=1, max_value=40))
@settings(max_examples=60)
def test_expand_always_yields_real_reconstruction(signal, budget):
    spectrum = np.fft.fft(np.asarray(signal, dtype=float))
    kept = compress_spectrum(spectrum, budget)
    full = expand_spectrum(kept, len(signal))
    reconstruction = np.fft.ifft(full)
    assert np.max(np.abs(reconstruction.imag)) < 1e-6 * max(1, max(signal)) + 1e-9


@given(int_signals)
@settings(max_examples=40)
def test_reconstruction_error_monotone_in_budget(signal):
    values = np.asarray(signal, dtype=float)
    half = len(values) // 2 + 1
    budgets = sorted({1, max(1, half // 2), half})
    errors = [reconstruction_squared_errors(values, b).sum() for b in budgets]
    for previous, current in zip(errors, errors[1:]):
        assert current <= previous + 1e-6 * max(1.0, errors[0])


@given(int_signals)
@settings(max_examples=40)
def test_full_budget_reconstruction_is_exact(signal):
    values = np.asarray(signal, dtype=float)
    half = len(values) // 2 + 1
    kept = compress_spectrum(np.fft.fft(values), half)
    recovered = reconstruct_values(kept, len(values))
    assert np.array_equal(recovered, values.astype(np.int64))


@given(
    st.integers(min_value=2, max_value=32),
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200),
)
@settings(max_examples=40)
def test_sliding_dft_matches_batch_fft(window, stream):
    sliding = SlidingDFT(
        window,
        control=ControlVector(recompute_interval=10**9, drift_bound=1.0),
    )
    sliding.extend(float(v) for v in stream)
    # The incremental coefficients are exactly the FFT of the slot buffer...
    buffered = sliding.buffer_values()
    if len(buffered) < window:
        buffered = np.concatenate([buffered, np.zeros(window - len(buffered))])
    expected = np.fft.fft(buffered)
    scale = max(1.0, float(np.max(np.abs(expected))) )
    assert np.allclose(sliding.coefficient_view()[1], expected, atol=1e-8 * scale)
    # ...and a pure phase shift of the chronological window's FFT.
    tail = np.asarray(stream[-window:], dtype=float)
    if len(tail) < window:
        tail = np.concatenate([tail, np.zeros(window - len(tail))])
    assert np.allclose(
        np.abs(sliding.coefficient_view()[1]), np.abs(np.fft.fft(tail)), atol=1e-8 * scale
    )


@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=30)
def test_recompute_cadence_bounds_updates_between_recomputes(window, length, interval):
    sliding = SlidingDFT(window, control=ControlVector(recompute_interval=interval))
    sliding.extend(float(i % 7) for i in range(length))
    assert sliding.updates_since_recompute < interval
    assert sliding.total_updates == length
