"""Unit tests for the message size model."""

from repro.net.message import (
    HEADER_BYTES,
    SUMMARY_COEFFICIENT_BYTES,
    TUPLE_KEY_BYTES,
    TUPLE_PAYLOAD_BYTES,
    Message,
    MessageKind,
)
from repro.net.stats import TrafficStats


def body_bytes(message):
    """Bytes of the tuple/result/control body: the size less the header and
    the summary entries."""
    return message.size_bytes() - HEADER_BYTES - message.summary_bytes()


def _msg(kind, entries=0):
    return Message(kind=kind, source=0, destination=1, summary_entries=entries)


def test_tuple_message_size():
    message = _msg(MessageKind.TUPLE)
    assert message.size_bytes() == HEADER_BYTES + TUPLE_KEY_BYTES + TUPLE_PAYLOAD_BYTES


def test_piggybacked_summary_adds_entry_bytes():
    bare = _msg(MessageKind.TUPLE)
    loaded = _msg(MessageKind.TUPLE, entries=3)
    assert loaded.size_bytes() == bare.size_bytes() + 3 * SUMMARY_COEFFICIENT_BYTES
    assert loaded.summary_bytes() == 3 * SUMMARY_COEFFICIENT_BYTES
    assert body_bytes(loaded) == body_bytes(bare)


def test_standalone_summary_has_no_tuple_body():
    message = _msg(MessageKind.SUMMARY, entries=5)
    assert body_bytes(message) == 0
    assert message.size_bytes() == HEADER_BYTES + 5 * SUMMARY_COEFFICIENT_BYTES


def test_result_message_carries_tuple_body():
    assert body_bytes(_msg(MessageKind.RESULT)) == TUPLE_KEY_BYTES + TUPLE_PAYLOAD_BYTES


def test_control_message_is_small():
    assert _msg(MessageKind.CONTROL).size_bytes() == HEADER_BYTES + TUPLE_KEY_BYTES


def test_message_ids_are_unique():
    ids = {_msg(MessageKind.TUPLE).message_id for _ in range(100)}
    assert len(ids) == 100


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
            assert message.summary_bytes() == entries * SUMMARY_COEFFICIENT_BYTES
            assert message.size_bytes() == (
                HEADER_BYTES + body + entries * SUMMARY_COEFFICIENT_BYTES
            )


def test_traffic_stats_totals_equal_the_table_sum():
    stats = TrafficStats()
    sequence = [
        (kind, entries) for entries in (0, 1, 8) for kind in MessageKind
    ] + [(MessageKind.TUPLE, 8), (MessageKind.SUMMARY, 1)]
    lost = sequence[::4]
    for kind, entries in sequence:
        stats.record(_msg(kind, entries))
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
    first = Message(kind=MessageKind.TUPLE, source=0, destination=1, message_id=5)
    second = Message(kind=MessageKind.TUPLE, source=0, destination=1, message_id=5)
    assert first == second
    second.seq = 3
    assert first != second
    assert repr(first) == (
        "Message(kind=<MessageKind.TUPLE: 'tuple'>, source=0, destination=1, "
        "payload=None, summary_entries=0, message_id=5, created_at=None, seq=None)"
    )
    assert not hasattr(first, "__dict__")
