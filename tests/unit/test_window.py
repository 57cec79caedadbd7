"""Unit tests for sliding windows."""

import pytest

from repro.errors import WindowError
from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import CountWindow, LandmarkWindow, TimeWindow


def make_tuple(key, timestamp=None, index=0):
    return StreamTuple(
        stream=StreamId.R,
        key=key,
        origin_node=0,
        arrival_index=index,
        timestamp=timestamp,
    )


class TestCountWindow:
    def test_capacity_must_be_positive(self):
        with pytest.raises(WindowError):
            CountWindow(0)

    def test_append_until_full_evicts_nothing(self):
        window = CountWindow(3)
        for key in (1, 2, 3):
            assert window.append(make_tuple(key)) == []
        assert len(window) == 3

    def test_eviction_is_fifo(self):
        window = CountWindow(2)
        first = make_tuple(1)
        window.append(first)
        window.append(make_tuple(2))
        evicted = window.append(make_tuple(3))
        assert evicted == [first]
        assert [t.key for t in window] == [2, 3]

    def test_key_counts_track_multiplicity(self):
        window = CountWindow(4)
        for key in (7, 7, 8, 7):
            window.append(make_tuple(key))
        assert window._key_counts[7] == 3
        assert window._key_counts[8] == 1
        assert window._key_counts[9] == 0
        assert window.matches(7) and not window.matches(9)

    def test_counts_decrease_on_eviction(self):
        window = CountWindow(2)
        window.append(make_tuple(5))
        window.append(make_tuple(5))
        window.append(make_tuple(6))
        assert window._key_counts[5] == 1
        window.append(make_tuple(6))
        assert window._key_counts[5] == 0
        assert 5 not in window._key_counts  # zero entries purged

    def test_matches_returns_exact_tuples(self):
        window = CountWindow(3)
        a, b, c = make_tuple(1), make_tuple(2), make_tuple(1)
        for item in (a, b, c):
            window.append(item)
        assert window.matches(1) == [a, c]
        assert window.matches(99) == []

    def test_total_appended_counts_everything(self):
        window = CountWindow(1)
        for key in range(5):
            window.append(make_tuple(key))
        assert window.total_appended == 5
        assert len(window) == 1


class TestTimeWindow:
    def test_span_must_be_positive(self):
        with pytest.raises(WindowError):
            TimeWindow(0.0)

    def test_requires_timestamps(self):
        window = TimeWindow(1.0)
        with pytest.raises(WindowError):
            window.append(make_tuple(1, timestamp=None))

    def test_expires_by_time(self):
        window = TimeWindow(1.0)
        window.append(make_tuple(1, timestamp=0.0))
        window.append(make_tuple(2, timestamp=0.5))
        evicted = window.append(make_tuple(3, timestamp=1.4))
        assert [t.key for t in evicted] == [1]
        assert sorted(t.key for t in window) == [2, 3]

    def test_advance_to_expires_without_insert(self):
        window = TimeWindow(1.0)
        window.append(make_tuple(1, timestamp=0.0))
        window.append(make_tuple(2, timestamp=0.9))
        evicted = window.advance_to(1.5)
        assert [t.key for t in evicted] == [1]
        assert len(window) == 1


class TestLandmarkWindow:
    def test_resets_on_landmark(self):
        window = LandmarkWindow(landmark_key=0)
        for key in (1, 2, 3):
            window.append(make_tuple(key))
        evicted = window.append(make_tuple(0))
        assert [t.key for t in evicted] == [1, 2, 3]
        assert [t.key for t in window] == [0]
        assert window.resets == 1

    def test_max_size_bounds_growth(self):
        window = LandmarkWindow(landmark_key=0, max_size=2)
        for key in (1, 2, 3):
            window.append(make_tuple(key))
        assert len(window) == 2
        assert [t.key for t in window] == [2, 3]
