"""Property-based tests for AGMS sketches."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.agms import AgmsSketch, SketchShape

key_lists = st.lists(st.integers(min_value=1, max_value=100), min_size=0, max_size=150)


def build_pair(seed=7, total=1500):
    shape = SketchShape.from_total(total)
    left = AgmsSketch(shape, rng=np.random.default_rng(seed))
    return left, left.spawn_compatible()


@given(key_lists)
@settings(max_examples=50)
def test_insert_then_delete_everything_returns_to_zero(keys):
    sketch, _ = build_pair()
    for key in keys:
        sketch.update(key, +1)
    for key in keys:
        sketch.update(key, -1)
    assert np.allclose(sketch.snapshot_counters(), 0.0)


@given(key_lists)
@settings(max_examples=50)
def test_update_order_does_not_matter(keys):
    a, _ = build_pair(seed=9)
    b = a.spawn_compatible()
    for key in keys:
        a.update(key, +1)
    for key in reversed(keys):
        b.update(key, +1)
    assert np.allclose(a.snapshot_counters(), b.snapshot_counters())


@given(key_lists, key_lists)
@settings(max_examples=30)
def test_join_estimate_is_symmetric(left_keys, right_keys):
    left, right = build_pair(seed=11)
    for key in left_keys:
        left.update(key)
    for key in right_keys:
        right.update(key)
    assert left.join_size_estimate(right) == right.join_size_estimate(left)


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=30, max_size=150))
@settings(max_examples=25)
def test_join_estimate_tracks_exact_size_loosely(keys):
    """Median-of-means over a 1500-counter sketch: within 3 std of exact."""
    left, right = build_pair(seed=13, total=2000)
    left_counter = Counter(keys)
    right_counter = Counter(keys[::-1])
    for key, count in left_counter.items():
        left.update(key, count)
    for key, count in right_counter.items():
        right.update(key, count)
    exact = sum(count * right_counter[key] for key, count in left_counter.items())
    f2_left = sum(c * c for c in left_counter.values())
    f2_right = sum(c * c for c in right_counter.values())
    std = np.sqrt(2 * f2_left * f2_right / left.shape.s0)
    estimate = left.join_size_estimate(right)
    assert abs(estimate - exact) <= 4 * std + 1e-9


@given(st.integers(min_value=1, max_value=4000))
@settings(max_examples=50)
def test_shape_from_total_never_exceeds_budget(total):
    shape = SketchShape.from_total(total)
    assert 1 <= shape.total <= max(total, SketchShape.from_total(total).s0)
    if total >= 5:
        assert shape.total <= total
