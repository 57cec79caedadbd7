"""Bit-level equivalence of the vectorized kernels against their scalar paths.

The fast paths (twiddle tables, rotation phases, batched ``extend``,
``update_batch``, the sign-vector cache) are only admissible because they
change *nothing* about the numbers: every test here asserts exact
(bit-for-bit) equality, not closeness.  The per-update ``np.exp``
reference lives in ``tests/reference_kernels.py``; rotation mode is
forced at small windows by patching ``TWIDDLE_TABLE_MAX_ENTRIES``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dft import sliding
from repro.dft.control import ControlVector
from repro.dft.sliding import SlidingDFT, low_frequency_bins
from repro.sketches.agms import AgmsSketch, SketchShape
from repro.sketches.hashing import FourWiseHashFamily
from tests.reference_kernels import ReferenceSlidingDFT


def _fast_dft(mode, window, bins, control):
    """A ``SlidingDFT`` in ``mode``: a zero table cap forces rotation."""
    cap = sliding.TWIDDLE_TABLE_MAX_ENTRIES if mode == "table" else 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sliding, "TWIDDLE_TABLE_MAX_ENTRIES", cap)
        dft = SlidingDFT(window, tracked_bins=bins, control=control)
    assert dft.mode == mode
    return dft


def _dft_pair(window, mode, interval):
    """Two identically-configured DFTs: one driven by extend, one by update."""
    bins = low_frequency_bins(window, max(1, window // 4))
    control = ControlVector(recompute_interval=interval)
    return (
        _fast_dft(mode, window, bins, control),
        _fast_dft(mode, window, bins, control),
    )


@pytest.mark.parametrize("mode", ["table", "rotation"])
@settings(max_examples=40, deadline=None)
@given(
    window=st.integers(min_value=2, max_value=96),
    interval=st.integers(min_value=3, max_value=200),
    data=st.data(),
)
def test_extend_bit_identical_to_update_loop(mode, window, interval, data):
    """extend(batch) == the equivalent update() loop, bit for bit.

    Streams longer than 2 W cross the slot-0 wraparound; intervals
    shorter than the stream cross drift-control recompute boundaries.
    """
    stream = data.draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=3 * window + 5,
        )
    )
    batched, scalar = _dft_pair(window, mode, interval)
    batched.extend(stream)
    for value in stream:
        scalar.update(value)
    assert batched.full_recomputes == scalar.full_recomputes
    assert batched.total_updates == scalar.total_updates
    assert batched.updates_since_recompute == scalar.updates_since_recompute
    assert np.array_equal(batched.buffer_values(), scalar.buffer_values())
    assert np.array_equal(batched.coefficient_view()[1], scalar.coefficient_view()[1])


def test_table_mode_matches_naive_reference_exactly():
    """The twiddle table reproduces the historical per-update np.exp path
    bit for bit (one vectorized exp yields the same values as W scalar
    exps of the same angles)."""
    window = 64
    rng = np.random.default_rng(7)
    stream = rng.normal(scale=100.0, size=3 * window).tolist()
    bins = low_frequency_bins(window, 16)
    control = ControlVector(recompute_interval=37)
    fast = _fast_dft("table", window, bins, control)
    naive = ReferenceSlidingDFT(window, tracked_bins=bins, control=control)
    fast.extend(stream)
    for value in stream:
        naive.update(value)
    assert np.array_equal(fast.coefficient_view()[1], naive.coefficient_view()[1])


def test_rotation_mode_tracks_naive_within_drift_budget():
    """Rotation mode replaces np.exp with a running phase product, so it
    is bit-identical to its *own* scalar path (covered above) and agrees
    with the naive reference to rounding error far below the control
    vector's drift bound."""
    window = 64
    rng = np.random.default_rng(13)
    stream = rng.normal(scale=100.0, size=3 * window).tolist()
    bins = low_frequency_bins(window, 16)
    control = ControlVector(recompute_interval=37)
    fast = _fast_dft("rotation", window, bins, control)
    naive = ReferenceSlidingDFT(window, tracked_bins=bins, control=control)
    fast.extend(stream)
    for value in stream:
        naive.update(value)
    np.testing.assert_allclose(
        fast.coefficient_view()[1], naive.coefficient_view()[1], rtol=1e-12, atol=1e-9
    )


def test_extend_in_chunks_matches_single_extend():
    """Arbitrary batch boundaries do not change the result."""
    window = 48
    rng = np.random.default_rng(11)
    stream = rng.normal(scale=10.0, size=150)
    a, b = _dft_pair(window, "table", 29)
    a.extend(stream)
    cursor = 0
    for size in (1, 7, 3, 60, 79):
        b.extend(stream[cursor : cursor + size])
        cursor += size
    assert cursor == stream.size
    assert np.array_equal(a.coefficient_view()[1], b.coefficient_view()[1])


def test_extend_accepts_generators():
    window = 16
    a, b = _dft_pair(window, "table", 1_000_000_000)
    a.extend(float(i) for i in range(40))
    b.extend([float(i) for i in range(40)])
    assert np.array_equal(a.coefficient_view()[1], b.coefficient_view()[1])


@settings(max_examples=30, deadline=None)
@given(
    updates=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=-3, max_value=3),
        ),
        min_size=1,
        max_size=120,
    )
)
def test_agms_update_batch_bit_identical(updates):
    rng = np.random.default_rng(3)
    shape = SketchShape.from_total(40)
    scalar = AgmsSketch(shape, rng=rng)
    batched = scalar.spawn_compatible()
    for key, delta in updates:
        scalar.update(key, delta)
    batched.update_batch([k for k, _ in updates], [d for _, d in updates])
    assert np.array_equal(scalar.snapshot_counters(), batched.snapshot_counters())
    assert scalar.updates == batched.updates


@settings(max_examples=30, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=80))
def test_cached_signs_bit_identical_to_uncached(keys):
    rng = np.random.default_rng(9)
    coefficients_seed = rng.integers(0, 2**31 - 1, size=(16, 4), dtype=np.int64)
    cached = FourWiseHashFamily(16, cache_size=8)
    uncached = FourWiseHashFamily(16, cache_size=0)
    cached._coefficients = coefficients_seed.copy()
    uncached._coefficients = coefficients_seed.copy()
    for key in keys:
        assert np.array_equal(cached.signs(key), uncached.signs(key))
    # The matrix path agrees too, cache hits and misses alike.
    assert np.array_equal(cached.signs_matrix(keys), uncached.signs_matrix(keys))


def test_sign_cache_is_capacity_bounded_and_counts():
    family = FourWiseHashFamily(8, rng=np.random.default_rng(1), cache_size=4)
    for key in range(10):
        family.signs(key)
    assert family.cache_misses == 10
    assert family.cache_hits == 0
    assert len(family._sign_cache) == 4
    family.signs(9)  # still resident
    assert family.cache_hits == 1
    family.signs(0)  # evicted long ago -> miss again
    assert family.cache_misses == 11


def test_cached_sign_vectors_are_read_only():
    family = FourWiseHashFamily(8, rng=np.random.default_rng(2), cache_size=4)
    vector = family.signs(42)
    with pytest.raises(ValueError):
        vector[0] = 0
