"""Unit tests for the symmetric hash join."""

import pytest

from repro.errors import WindowError
from repro.join.hash_join import SymmetricHashJoin
from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import CountWindow


def make_tuple(stream, key, origin=0, index=0):
    return StreamTuple(stream=stream, key=key, origin_node=origin, arrival_index=index)


def make_join(node_id=0, capacity=8):
    return SymmetricHashJoin(
        node_id, r_window=CountWindow(capacity), s_window=CountWindow(capacity)
    )


def test_probe_before_insert_semantics():
    join = make_join()
    r = make_tuple(StreamId.R, 5)
    results, _ = join.insert_local(r)
    assert results == []  # nothing in S yet
    s = make_tuple(StreamId.S, 5)
    results, _ = join.insert_local(s)
    assert len(results) == 1
    assert results[0].r_tuple is r
    assert results[0].s_tuple is s


def test_no_self_join_within_stream():
    join = make_join()
    join.insert_local(make_tuple(StreamId.R, 1))
    results, _ = join.insert_local(make_tuple(StreamId.R, 1))
    assert results == []


def test_each_pair_produced_once():
    join = make_join()
    pairs = set()
    for key in (1, 1, 2):
        results, _ = join.insert_local(make_tuple(StreamId.R, key))
        pairs.update(r.pair_id for r in results)
    for key in (1, 2, 1):
        results, _ = join.insert_local(make_tuple(StreamId.S, key))
        pairs.update(r.pair_id for r in results)
    # R has keys {1,1,2}; S has {1,2,1}: exact join size = 2*2 + 1 = 5.
    assert len(pairs) == 5


def test_result_orientation_always_r_then_s():
    join = make_join()
    join.insert_local(make_tuple(StreamId.S, 9))
    results, _ = join.insert_local(make_tuple(StreamId.R, 9))
    assert results[0].r_tuple.stream is StreamId.R
    assert results[0].s_tuple.stream is StreamId.S


def test_eviction_returned_and_excluded_from_matches():
    join = make_join(capacity=1)
    old = make_tuple(StreamId.S, 7)
    join.insert_local(old)
    _, evicted = join.insert_local(make_tuple(StreamId.S, 8))
    assert evicted == [old]
    results, _ = join.insert_local(make_tuple(StreamId.R, 7))
    assert results == []  # 7 was evicted


def test_probe_remote_does_not_insert():
    join = make_join()
    join.insert_local(make_tuple(StreamId.S, 4))
    remote = make_tuple(StreamId.R, 4, origin=1)
    results = join.probe_remote(remote)
    assert len(results) == 1
    # The remote copy is not in the R window: an S arrival finds nothing new.
    results, _ = join.insert_local(make_tuple(StreamId.S, 4))
    assert results == []


def test_probe_remote_rejects_own_tuples():
    join = make_join(node_id=3)
    with pytest.raises(WindowError):
        join.probe_remote(make_tuple(StreamId.R, 1, origin=3))


def test_match_count():
    join = make_join()
    for _ in range(3):
        join.insert_local(make_tuple(StreamId.S, 2))
    assert len(join.window(StreamId.S).matches(2)) == 3
    assert join.window(StreamId.S).matches(5) == []


def test_result_counters():
    join = make_join()
    join.insert_local(make_tuple(StreamId.S, 1))
    join.insert_local(make_tuple(StreamId.R, 1))
    join.probe_remote(make_tuple(StreamId.R, 1, origin=1))
    assert join.local_results == 1
    assert join.probe_results == 1
