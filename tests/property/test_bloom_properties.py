"""Property-based tests for counting Bloom filters."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.counting import CountingBloomFilter

key_lists = st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=120)


@given(key_lists)
@settings(max_examples=60)
def test_counting_filter_never_false_negative(keys):
    bloom = CountingBloomFilter(2048, 4, max_count=255, rng=np.random.default_rng(2))
    for key in keys:
        bloom.add(key)
    assert all(key in bloom for key in keys)


@given(key_lists)
@settings(max_examples=60)
def test_counting_filter_full_deletion_empties(keys):
    bloom = CountingBloomFilter(4096, 4, max_count=10**6, rng=np.random.default_rng(3))
    for key in keys:
        bloom.add(key)
    for key in keys:
        bloom.remove(key)
    assert bloom.items == 0
    assert bloom.fill_ratio() == 0.0


@given(key_lists, st.integers(min_value=1, max_value=32))
@settings(max_examples=40)
def test_sliding_window_maintenance_preserves_membership(keys, window_size):
    bloom = CountingBloomFilter(4096, 4, max_count=10**6, rng=np.random.default_rng(4))
    window = []
    for key in keys:
        bloom.add(key)
        window.append(key)
        if len(window) > window_size:
            bloom.remove(window.pop(0))
        assert all(k in bloom for k in window)


@given(key_lists)
@settings(max_examples=40)
def test_count_estimate_upper_bounds_true_count(keys):
    bloom = CountingBloomFilter(2048, 4, max_count=10**6, rng=np.random.default_rng(5))
    for key in keys:
        bloom.add(key)
    from collections import Counter

    counts = Counter(keys)
    for key, count in counts.items():
        assert bloom.count_estimate(key) >= count
