"""Bit-level equivalence of the fast kernels against their scalar references.

The fast paths (twiddle tables, rotation phases, the sign-vector cache)
are only admissible because they change *nothing* about the numbers:
every test here asserts exact (bit-for-bit) equality, not closeness,
except rotation mode against the per-update ``np.exp`` reference, which
agrees to rounding.  The references live in ``tests/reference_kernels.py``;
rotation mode is forced at small windows by patching
``TWIDDLE_TABLE_MAX_ENTRIES``, and a small sign cache by patching
``DEFAULT_SIGN_CACHE_SIZE``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dft import sliding
from repro.dft.control import ControlVector
from repro.dft.sliding import SlidingDFT, low_frequency_bins
from repro.sketches import hashing
from repro.sketches.hashing import FourWiseHashFamily
from tests.reference_kernels import ReferenceHashFamily, ReferenceSlidingDFT


def _fast_dft(mode, window, bins, control):
    """A ``SlidingDFT`` in ``mode``: a zero table cap forces rotation."""
    cap = sliding.TWIDDLE_TABLE_MAX_ENTRIES if mode == "table" else 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sliding, "TWIDDLE_TABLE_MAX_ENTRIES", cap)
        dft = SlidingDFT(window, tracked_bins=bins, control=control)
    assert dft.mode == mode
    return dft


def _dft_pair(window, mode, interval):
    """A fast DFT in ``mode`` and the naive reference, identically configured."""
    bins = low_frequency_bins(window, max(1, window // 4))
    control = ControlVector(recompute_interval=interval)
    return (
        _fast_dft(mode, window, bins, control),
        ReferenceSlidingDFT(window, tracked_bins=bins, control=control),
    )


@pytest.mark.parametrize("mode", ["table", "rotation"])
@settings(max_examples=40, deadline=None)
@given(
    window=st.integers(min_value=2, max_value=96),
    interval=st.integers(min_value=3, max_value=200),
    data=st.data(),
)
def test_fast_modes_match_naive_reference(mode, window, interval, data):
    """Table mode equals the per-update ``np.exp`` path bit for bit;
    rotation mode agrees to rounding.

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
    fast, naive = _dft_pair(window, mode, interval)
    for value in stream:
        fast.update(value)
        naive.update(value)
    assert fast.full_recomputes == naive.full_recomputes
    assert fast.total_updates == naive.total_updates
    assert fast.updates_since_recompute == naive.updates_since_recompute
    assert np.array_equal(fast.buffer_values(), naive.buffer_values())
    if mode == "table":
        assert np.array_equal(fast.coefficient_view()[1], naive.coefficient_view()[1])
    else:
        scale = window * max(1.0, max(abs(value) for value in stream))
        np.testing.assert_allclose(
            fast.coefficient_view()[1],
            naive.coefficient_view()[1],
            rtol=0,
            atol=1e-12 * scale,
        )


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
    agrees with the naive reference to rounding error far below the
    control vector's drift bound."""
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


def test_extend_accepts_generators():
    window = 16
    bins = low_frequency_bins(window, 4)
    control = ControlVector(recompute_interval=1_000_000_000)
    a = _fast_dft("table", window, bins, control)
    b = _fast_dft("table", window, bins, control)
    a.extend(float(i) for i in range(40))
    b.extend([float(i) for i in range(40)])
    assert np.array_equal(a.coefficient_view()[1], b.coefficient_view()[1])


@settings(max_examples=30, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=80))
def test_cached_signs_bit_identical_to_uncached(keys):
    """Hits, misses and re-misses after LRU eviction all equal a fresh
    evaluation (an 8-entry cache so the stream evicts)."""
    cached = FourWiseHashFamily(16, rng=np.random.default_rng(9))
    uncached = ReferenceHashFamily(16, rng=np.random.default_rng(9))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hashing, "DEFAULT_SIGN_CACHE_SIZE", 8)
        for key in keys:
            assert np.array_equal(cached.signs(key), uncached.signs(key))
    assert cached.cache_hits + cached.cache_misses == len(keys)


def test_sign_cache_is_capacity_bounded_and_counts(monkeypatch):
    monkeypatch.setattr(hashing, "DEFAULT_SIGN_CACHE_SIZE", 4)
    family = FourWiseHashFamily(8, rng=np.random.default_rng(1))
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
    family = FourWiseHashFamily(8, rng=np.random.default_rng(2))
    vector = family.signs(42)
    with pytest.raises(ValueError):
        vector[0] = 0
