"""Unit tests for the counting Bloom filter."""

import numpy as np
import pytest

from repro.bloom.counting import CountingBloomFilter
from repro.errors import SummaryError
from repro.sketches.hashing import FourWiseHashFamily


def _filter(counters=1024, hashes=4, max_count=15, seed=0):
    return CountingBloomFilter(
        counters, hashes, max_count=max_count, rng=np.random.default_rng(seed)
    )


def test_validation():
    with pytest.raises(SummaryError):
        CountingBloomFilter(0, 1)
    with pytest.raises(SummaryError):
        CountingBloomFilter(8, 0)
    with pytest.raises(SummaryError):
        CountingBloomFilter(8, 1, max_count=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda hashes: CountingBloomFilter(64, 3, hashes=hashes),
    ],
    ids=["counting"],
)
def test_one_row_hash_family_is_rejected_at_construction(build):
    """Double hashing reads rows 0 and 1; a 1-row family used to get past
    the counting filter's constructor and die with a bare ``IndexError``
    at the first ``add``."""
    with pytest.raises(SummaryError, match="2-row hash family"):
        build(FourWiseHashFamily(1))
    build(FourWiseHashFamily(2)).add(7)


def test_membership_after_add():
    bloom = _filter()
    for key in range(50):
        bloom.add(key)
    assert all(key in bloom for key in range(50))


def test_remove_restores_absence():
    bloom = _filter()
    bloom.add(7)
    assert 7 in bloom
    bloom.remove(7)
    assert 7 not in bloom
    assert bloom.items == 0


def test_sliding_window_cycle_never_false_negative():
    bloom = _filter(counters=2048)
    window = []
    for key in range(500):
        bloom.add(key)
        window.append(key)
        if len(window) > 64:
            bloom.remove(window.pop(0))
        assert all(k in bloom for k in window)


def test_remove_unknown_key_raises():
    bloom = _filter()
    bloom.add(3)
    with pytest.raises(SummaryError):
        bloom.remove(9999)


def test_count_estimate_upper_bounds_multiplicity():
    bloom = _filter()
    for _ in range(5):
        bloom.add(42)
    assert bloom.count_estimate(42) >= 5
    bloom.remove(42)
    assert bloom.count_estimate(42) >= 4


def test_saturated_counters_are_sticky():
    bloom = _filter(counters=64, hashes=2, max_count=3)
    for _ in range(10):
        bloom.add(1)  # saturates key 1's cells at 3
    assert bloom.saturations > 0
    for _ in range(10):
        bloom.remove(1)  # skipped decrements, no underflow
    assert 1 in bloom  # sticky saturation: permanent false positive


def test_snapshot_round_trip():
    bloom = _filter()
    for key in range(20):
        bloom.add(key)
    snapshot = bloom.snapshot()
    clone = bloom.spawn_compatible()
    clone.load_snapshot(snapshot)
    assert all(key in clone for key in range(20))
    # Snapshot is a copy: mutating the original does not leak.
    bloom.add(999)
    assert 999 not in clone or bloom.count_estimate(999) >= 1


def test_load_snapshot_shape_mismatch():
    bloom = _filter(counters=64)
    with pytest.raises(SummaryError):
        bloom.load_snapshot(np.zeros(32, dtype=np.int32))


def test_fill_ratio_and_fp_rate():
    bloom = _filter(counters=256, hashes=4)
    assert bloom.fill_ratio() == 0.0
    for key in range(100):
        bloom.add(key)
    assert 0.0 < bloom.fill_ratio() <= 1.0
