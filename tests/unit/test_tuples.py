"""Unit tests for the stream tuple model."""

from repro.streams.tuples import StreamId, StreamTuple


def test_stream_other_is_involutive():
    assert StreamId.R.other is StreamId.S
    assert StreamId.S.other is StreamId.R
    assert StreamId.R.other.other is StreamId.R


def test_tuple_ids_are_unique():
    tuples = [
        StreamTuple(stream=StreamId.R, key=1, origin_node=0, arrival_index=i)
        for i in range(50)
    ]
    assert len({t.tuple_id for t in tuples}) == 50


def test_with_timestamp_preserves_identity():
    original = StreamTuple(stream=StreamId.S, key=9, origin_node=2, arrival_index=7)
    stamped = original.with_timestamp(3.5)
    assert stamped.tuple_id == original.tuple_id
    assert stamped.timestamp == 3.5
    assert stamped.key == 9
    assert stamped.stream is StreamId.S
    assert original.timestamp is None  # frozen original untouched


def test_tuples_and_join_results_carry_no_instance_dict():
    """The two most numerous records are slotted: no per-instance dict
    for the collector to track, and they still round-trip (Python
    3.10's frozen-slots dataclasses need their generated
    ``__getstate__`` / ``__setstate__`` for this)."""
    import copy
    import pickle

    from repro.join.hash_join import JoinResult

    item = StreamTuple(
        stream=StreamId.R, key=7, origin_node=1, arrival_index=3,
        payload=("x", 1), timestamp=1.5,
    )
    partner = StreamTuple(stream=StreamId.S, key=7, origin_node=0, arrival_index=4)
    result = JoinResult(item, partner, produced_at_node=0, produced_at_time=2.0)
    for record in (item, result):
        assert not hasattr(record, "__dict__")
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(twin) is type(record)
            assert twin == record
    twin = pickle.loads(pickle.dumps(item))
    assert hash(twin) == hash(item)
    assert twin.tuple_id == item.tuple_id
