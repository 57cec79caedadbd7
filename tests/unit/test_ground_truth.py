"""Unit tests for the ground-truth oracle."""

from repro.join.ground_truth import GroundTruthOracle
from repro.join.hash_join import JoinResult
from repro.streams.tuples import StreamId, StreamTuple


def make_tuple(stream, key, origin=0):
    return StreamTuple(stream=stream, key=key, origin_node=origin, arrival_index=0)


def test_empty_oracle():
    oracle = GroundTruthOracle()
    assert oracle.total_result_pairs == 0


def test_pairs_counted_at_second_arrival():
    oracle = GroundTruthOracle()
    r = make_tuple(StreamId.R, 5)
    s = make_tuple(StreamId.S, 5)
    assert oracle.observe_arrival(r, []) == 0
    assert oracle.observe_arrival(s, []) == 1
    assert oracle.total_result_pairs == 1
    assert oracle.is_true_pair(r.tuple_id, s.tuple_id)
    assert not oracle.is_true_pair(s.tuple_id, r.tuple_id)  # ordered (r, s)


def test_multiplicity_counts_all_pairs():
    oracle = GroundTruthOracle()
    r_tuples = [make_tuple(StreamId.R, 9) for _ in range(3)]
    for r in r_tuples:
        oracle.observe_arrival(r, [])
    s = make_tuple(StreamId.S, 9)
    assert oracle.observe_arrival(s, []) == 3
    assert oracle.total_result_pairs == 3
    for r in r_tuples:
        assert oracle.is_true_pair(r.tuple_id, s.tuple_id)


def test_eviction_removes_future_pairs_only():
    oracle = GroundTruthOracle()
    r = make_tuple(StreamId.R, 4)
    oracle.observe_arrival(r, [])
    s1 = make_tuple(StreamId.S, 4)
    oracle.observe_arrival(s1, [])
    # r is evicted by a newer R arrival.
    newer = make_tuple(StreamId.R, 8)
    oracle.observe_arrival(newer, [r])
    s2 = make_tuple(StreamId.S, 4)
    assert oracle.observe_arrival(s2, []) == 0  # r gone
    assert oracle.is_true_pair(r.tuple_id, s1.tuple_id)  # the old pair remains
    assert not oracle.is_true_pair(r.tuple_id, s2.tuple_id)


def test_streams_do_not_join_themselves():
    oracle = GroundTruthOracle()
    oracle.observe_arrival(make_tuple(StreamId.R, 7), [])
    assert oracle.observe_arrival(make_tuple(StreamId.R, 7), []) == 0
    assert oracle.total_result_pairs == 0


def test_validate_wraps_pair_lookup():
    oracle = GroundTruthOracle()
    r = make_tuple(StreamId.R, 2)
    s = make_tuple(StreamId.S, 2)
    oracle.observe_arrival(r, [])
    oracle.observe_arrival(s, [])
    assert oracle.validate(JoinResult(r, s, produced_at_node=0))
    stranger = make_tuple(StreamId.S, 2)
    assert not oracle.validate(JoinResult(r, stranger, produced_at_node=0))


def test_per_node_contribution():
    oracle = GroundTruthOracle()
    oracle.observe_arrival(make_tuple(StreamId.R, 1, origin=0), [])
    oracle.observe_arrival(make_tuple(StreamId.S, 1, origin=2), [])
    oracle.observe_arrival(make_tuple(StreamId.S, 1, origin=2), [])
    assert oracle.per_node_contribution[2] == 2
    assert oracle.per_node_contribution[0] == 0


def test_population_tracking():
    oracle = GroundTruthOracle()
    r1 = make_tuple(StreamId.R, 1)
    r2 = make_tuple(StreamId.R, 1)
    oracle.observe_arrival(r1, [])
    oracle.observe_arrival(r2, [r1])
    assert oracle.tuples_observed == 2
    # Only r2 is still live: an S arrival on key 1 completes one pair.
    assert oracle.observe_arrival(make_tuple(StreamId.S, 1), []) == 1
