"""Property-based tests for sliding-window invariants."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import CountWindow


def make_tuple(key, index):
    return StreamTuple(stream=StreamId.R, key=key, origin_node=0, arrival_index=index)


keys_and_capacity = st.tuples(
    st.lists(st.integers(min_value=1, max_value=20), min_size=0, max_size=200),
    st.integers(min_value=1, max_value=16),
)


@given(keys_and_capacity)
@settings(max_examples=80)
def test_count_window_holds_exactly_the_tail(pair):
    keys, capacity = pair
    window = CountWindow(capacity)
    for index, key in enumerate(keys):
        window.append(make_tuple(key, index))
    expected_tail = keys[-capacity:]
    assert [t.key for t in window] == expected_tail
    assert len(window) == len(expected_tail)


@given(keys_and_capacity)
@settings(max_examples=80)
def test_key_counts_always_match_contents(pair):
    keys, capacity = pair
    window = CountWindow(capacity)
    for index, key in enumerate(keys):
        window.append(make_tuple(key, index))
        assert window._key_counts == Counter(t.key for t in window)
        assert all(count > 0 for count in window._key_counts.values())


@given(keys_and_capacity)
@settings(max_examples=80)
def test_evictions_plus_contents_equal_appends(pair):
    keys, capacity = pair
    window = CountWindow(capacity)
    evicted_total = 0
    for index, key in enumerate(keys):
        evicted_total += len(window.append(make_tuple(key, index)))
    assert evicted_total + len(window) == len(keys)
    assert window.total_appended == len(keys)


@given(keys_and_capacity, st.integers(min_value=1, max_value=20))
@settings(max_examples=60)
def test_matches_agree_with_count(pair, probe_key):
    keys, capacity = pair
    window = CountWindow(capacity)
    for index, key in enumerate(keys):
        window.append(make_tuple(key, index))
    assert len(window.matches(probe_key)) == window._key_counts[probe_key]
    assert len(window.matches(probe_key)) == sum(t.key == probe_key for t in window)
