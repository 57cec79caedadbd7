"""Unit tests for AGMS sketches."""

from collections import Counter

import numpy as np
import pytest

from repro.errors import SummaryError
from repro.sketches.agms import AgmsSketch, SketchShape


def exact_join_size(left: Counter, right: Counter) -> int:
    return sum(count * right[key] for key, count in left.items())


class TestSketchShape:
    def test_validation(self):
        with pytest.raises(SummaryError):
            SketchShape(s0=0, s1=1)
        with pytest.raises(SummaryError):
            SketchShape.from_total(0)

    def test_from_total_respects_ratio(self):
        shape = SketchShape.from_total(500, ratio=5)
        assert shape.s0 >= shape.s1
        assert shape.total <= 500
        assert shape.s1 == 10 and shape.s0 == 50

    def test_from_total_small(self):
        shape = SketchShape.from_total(3)
        assert shape.s0 >= 1 and shape.s1 >= 1


class TestAgmsSketch:
    def _pair(self, total=500, seed=0):
        shape = SketchShape.from_total(total)
        left = AgmsSketch(shape, rng=np.random.default_rng(seed))
        right = left.spawn_compatible()
        return left, right

    def test_empty_sketch_estimates_zero(self):
        left, right = self._pair()
        assert left.join_size_estimate(right) == 0.0
        assert left.self_join_size_estimate() == 0.0

    def test_join_size_estimate_accuracy(self):
        rng = np.random.default_rng(1)
        left_sketch, right_sketch = self._pair(total=2000, seed=2)
        left_data = Counter(int(k) for k in rng.integers(1, 50, size=400))
        right_data = Counter(int(k) for k in rng.integers(1, 50, size=400))
        for key, count in left_data.items():
            left_sketch.update(key, count)
        for key, count in right_data.items():
            right_sketch.update(key, count)
        exact = exact_join_size(left_data, right_data)
        estimate = left_sketch.join_size_estimate(right_sketch)
        assert abs(estimate - exact) / exact < 0.35

    def test_self_join_estimates_second_moment(self):
        rng = np.random.default_rng(3)
        sketch, _ = self._pair(total=2000, seed=4)
        data = Counter(int(k) for k in rng.integers(1, 30, size=500))
        for key, count in data.items():
            sketch.update(key, count)
        exact_f2 = sum(c * c for c in data.values())
        estimate = sketch.self_join_size_estimate()
        assert abs(estimate - exact_f2) / exact_f2 < 0.35

    def test_disjoint_domains_estimate_near_zero(self):
        left, right = self._pair(total=2000, seed=5)
        for key in range(1, 101):
            left.update(key, 1)
        for key in range(1000, 1100):
            right.update(key, 1)
        estimate = left.join_size_estimate(right)
        assert abs(estimate) < 60  # noise around zero, far below |window|=100... overlap would be >= 100

    def test_deletion_cancels_insertion(self):
        sketch, _ = self._pair(seed=6)
        baseline = sketch.snapshot_counters().copy()
        sketch.update(77, +1)
        sketch.update(77, -1)
        assert np.array_equal(sketch.snapshot_counters(), baseline)

    def test_zero_delta_is_noop(self):
        sketch, _ = self._pair(seed=7)
        sketch.update(5, 0)
        assert sketch.updates == 0

    def test_incompatible_shapes_rejected(self):
        a = AgmsSketch(SketchShape(s0=5, s1=1), rng=np.random.default_rng(8))
        b = AgmsSketch(SketchShape(s0=10, s1=2), rng=np.random.default_rng(9))
        with pytest.raises(SummaryError):
            a.join_size_estimate(b)

    def test_different_hash_banks_rejected(self):
        shape = SketchShape(s0=5, s1=1)
        a = AgmsSketch(shape, rng=np.random.default_rng(10))
        b = AgmsSketch(shape, rng=np.random.default_rng(11))
        with pytest.raises(SummaryError):
            a.join_size_estimate(b)

    def test_hash_row_count_must_match_shape(self):
        from repro.sketches.hashing import FourWiseHashFamily

        with pytest.raises(SummaryError):
            AgmsSketch(SketchShape(s0=5, s1=2), hashes=FourWiseHashFamily(3))
