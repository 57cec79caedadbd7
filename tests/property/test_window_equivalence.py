"""The key-deque probe answers what the list scan answered.

``SlidingWindow.matches`` finds its matches with ``deque.index`` over a
deque of keys kept beside the tuples.  That is only admissible because no
caller can tell: after every operation of a random history -- appends,
clock advances, landmark resets and checkpoint restores on count, time
and landmark windows -- each probe key, present or absent, gets the same
tuples, the same objects in the same order, as ``tests/reference_window.py``
(the list scan), and the key deque matches the tuples position by
position.

A count window's ``append`` evicts inline.  Over random histories of
appends and restores (some restoring more tuples than the capacity, so
the next append evicts several), at capacities from 1, it returns the
same evicted tuples, the same objects in the same order, and leaves the
same tuples, key deque, key multiset (in insertion order) and append
count as ``ReferenceCountWindow``, the generic ``SlidingWindow.append``
path it replaced.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import CountWindow, LandmarkWindow, TimeWindow
from tests.reference_window import ReferenceCountWindow, reference_matches

KEYS = st.integers(min_value=0, max_value=5)
PROBE_KEYS = range(-1, 8)  # 6 and 7 are never appended, -1 neither
LANDMARK = 0


def windows():
    return st.one_of(
        st.integers(min_value=1, max_value=8).map(CountWindow),
        st.sampled_from([0.25, 1.0, 2.5]).map(TimeWindow),
        st.sampled_from([None, 3, 6]).map(
            lambda size: LandmarkWindow(LANDMARK, max_size=size)
        ),
    )


operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), KEYS, st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.5])),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.2, 1.0, 3.0])),
        st.tuples(
            st.just("restore"),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=50),
        ),
    ),
    max_size=60,
)


def assert_same_answers(window):
    tuples = list(window)
    assert list(window._keys) == [t.key for t in tuples]
    recount = Counter(t.key for t in tuples)
    assert window._key_counts == recount
    assert all(count > 0 for count in window._key_counts.values())
    for key in PROBE_KEYS:
        found, expected = window.matches(key), reference_matches(window, key)
        assert type(found) is list
        assert found == expected
        assert len(found) == len(expected)
        assert all(a is b for a, b in zip(found, expected))
        assert window._key_counts[key] == recount[key]
    # The reads above go through ``Counter.__missing__`` and must not
    # have inserted zero counts for the absent keys.
    assert window._key_counts == recount


@given(windows(), operations)
@settings(max_examples=150, deadline=None)
def test_probe_matches_the_list_scan(window, history):
    now = 0.0
    appended = []
    for operation in history:
        if operation[0] == "append":
            _, key, step = operation
            now += step
            item = StreamTuple(
                stream=StreamId.R,
                key=key,
                origin_node=0,
                arrival_index=len(appended),
                timestamp=now,
            )
            appended.append(item)
            window.append(item)
        elif operation[0] == "advance":
            now += operation[1]
            if isinstance(window, TimeWindow):
                window.advance_to(now)
        else:
            # Restore a run of earlier arrivals, as a checkpoint would:
            # oldest first, so time windows keep their order.
            _, start, length, total = operation
            window.restore(appended[start : start + length], total)
        assert_same_answers(window)


def state(window):
    return (
        list(window),
        list(window._keys),
        list(window._key_counts.items()),
        window.total_appended,
    )


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(
        st.one_of(
            st.tuples(st.just("append"), KEYS),
            st.tuples(
                st.just("restore"),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=50),
            ),
        ),
        max_size=60,
    ),
)
@settings(max_examples=150, deadline=None)
def test_inline_count_append_equals_the_generic_path(capacity, history):
    ours, reference = CountWindow(capacity), ReferenceCountWindow(capacity)
    appended = []
    for operation in history:
        if operation[0] == "append":
            item = StreamTuple(
                stream=StreamId.S, key=operation[1], origin_node=1,
                arrival_index=len(appended),
            )
            appended.append(item)
            evicted, expected = ours.append(item), reference.append(item)
            assert type(evicted) is list
            assert evicted == expected
            assert all(a is b for a, b in zip(evicted, expected))
        else:
            _, start, length, total = operation
            for window in (ours, reference):
                window.restore(appended[start : start + length], total)
        assert state(ours) == state(reference)
        assert all(a is b for a, b in zip(ours, reference))
        assert_same_answers(ours)


def test_an_oversized_restore_evicts_down_to_capacity_on_the_next_append():
    """The fixed case behind the property: capacity 1, and a restore of
    four tuples that the next append brings back to one."""
    items = [
        StreamTuple(stream=StreamId.R, key=k, origin_node=0, arrival_index=i)
        for i, k in enumerate([3, 1, 3, 2, 5])
    ]
    ours, reference = CountWindow(1), ReferenceCountWindow(1)
    for window in (ours, reference):
        assert window.append(items[0]) == []
        window.restore(items[:4], 4)
    evicted = ours.append(items[4])
    assert evicted == items[:4] == reference.append(items[4])
    assert state(ours) == state(reference) == ([items[4]], [5], [(5, 1)], 5)
