"""Unit tests for the message size model."""

import pytest

from repro.net.message import (
    HEADER_BYTES,
    SUMMARY_COEFFICIENT_BYTES,
    TUPLE_KEY_BYTES,
    TUPLE_PAYLOAD_BYTES,
    Message,
    MessageKind,
)
from repro.net.stats import TrafficStats
from tests.reference_traffic import record, summary_bytes


def body_bytes(message):
    """Bytes of the tuple/result/control body: the size less the header and
    the summary entries."""
    return message.wire_bytes - HEADER_BYTES - summary_bytes(message)


def _msg(kind, entries=0):
    return Message(kind=kind, source=0, summary_entries=entries)


def test_tuple_message_size():
    message = _msg(MessageKind.TUPLE)
    assert message.wire_bytes == HEADER_BYTES + TUPLE_KEY_BYTES + TUPLE_PAYLOAD_BYTES


def test_piggybacked_summary_adds_entry_bytes():
    bare = _msg(MessageKind.TUPLE)
    loaded = _msg(MessageKind.TUPLE, entries=3)
    assert loaded.wire_bytes == bare.wire_bytes + 3 * SUMMARY_COEFFICIENT_BYTES
    assert summary_bytes(loaded) == 3 * SUMMARY_COEFFICIENT_BYTES
    assert body_bytes(loaded) == body_bytes(bare)


def test_standalone_summary_has_no_tuple_body():
    message = _msg(MessageKind.SUMMARY, entries=5)
    assert body_bytes(message) == 0
    assert message.wire_bytes == HEADER_BYTES + 5 * SUMMARY_COEFFICIENT_BYTES


def test_result_message_carries_tuple_body():
    assert body_bytes(_msg(MessageKind.RESULT)) == TUPLE_KEY_BYTES + TUPLE_PAYLOAD_BYTES


def test_control_message_is_small():
    assert _msg(MessageKind.CONTROL).wire_bytes == HEADER_BYTES + TUPLE_KEY_BYTES


# The size model from first principles: header + body (by kind) + entries.
BODY_BYTES = {
    MessageKind.TUPLE: TUPLE_KEY_BYTES + TUPLE_PAYLOAD_BYTES,
    MessageKind.RESULT: TUPLE_KEY_BYTES + TUPLE_PAYLOAD_BYTES,
    MessageKind.CONTROL: TUPLE_KEY_BYTES,
    MessageKind.SUMMARY: 0,
    MessageKind.ACK: 0,
    MessageKind.HEARTBEAT: 0,
    MessageKind.STATE_TRANSFER: 0,
}


def test_size_table_for_every_kind_and_entry_count():
    assert set(BODY_BYTES) == set(MessageKind)
    for kind, body in BODY_BYTES.items():
        for entries in (0, 1, 8):
            message = _msg(kind, entries)
            assert body_bytes(message) == body
            assert summary_bytes(message) == entries * SUMMARY_COEFFICIENT_BYTES
            assert message.wire_bytes == (
                HEADER_BYTES + body + entries * SUMMARY_COEFFICIENT_BYTES
            )


def test_traffic_stats_totals_equal_the_table_sum():
    stats = TrafficStats()
    sequence = [
        (kind, entries) for entries in (0, 1, 8) for kind in MessageKind
    ] + [(MessageKind.TUPLE, 8), (MessageKind.SUMMARY, 1)]
    lost = sequence[::4]
    for kind, entries in sequence:
        record(stats, _msg(kind, entries))
    for kind, entries in lost:
        stats.record_loss(_msg(kind, entries))

    def size(kind, entries):
        return HEADER_BYTES + BODY_BYTES[kind] + entries * SUMMARY_COEFFICIENT_BYTES

    for kind in MessageKind:
        mine = [entries for k, entries in sequence if k is kind]
        assert stats.messages_by_kind[kind.value] == len(mine)
        assert stats.bytes_by_kind[kind.value] == sum(size(kind, e) for e in mine)
        assert stats.lost_by_kind[kind.value] == sum(1 for k, _ in lost if k is kind)
    assert stats.summary_entries == sum(entries for _, entries in sequence)
    assert stats.summary_bytes == stats.summary_entries * SUMMARY_COEFFICIENT_BYTES
    assert stats.net_data_bytes == sum(
        HEADER_BYTES + BODY_BYTES[kind] for kind, _ in sequence
    )
    assert stats.total_bytes == stats.summary_bytes + stats.net_data_bytes
    assert stats.messages_lost == len(lost)
    assert stats.bytes_lost == sum(size(kind, entries) for kind, entries in lost)


def test_dataclass_surface_survives_the_slots():
    """``==``, ``repr`` and keyword construction as the plain dataclass
    gave them; the two derived fields stay out of all three."""
    first = Message(kind=MessageKind.TUPLE, source=0, created_at=5.0)
    second = Message(kind=MessageKind.TUPLE, source=0, created_at=5.0)
    assert first == second
    second.seq = 3
    assert first != second
    assert repr(first) == (
        "Message(kind=<MessageKind.TUPLE: 'tuple'>, source=0, "
        "payload=None, summary_entries=0, created_at=5.0, seq=None)"
    )
    assert not hasattr(first, "__dict__")


def test_a_message_names_no_destination():
    """The link a copy leaves on is its destination, so a message holds
    none; every field after ``source`` is keyword-only, so a destination
    passed by position raises instead of landing in ``payload``."""
    message = Message(MessageKind.TUPLE, 0, payload=("item", ()))
    assert not hasattr(message, "destination")
    with pytest.raises(TypeError):
        Message(MessageKind.TUPLE, 0, 1)
    with pytest.raises(TypeError):
        Message(kind=MessageKind.TUPLE, source=0, destination=1)
