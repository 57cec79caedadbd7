"""Unit tests for traffic accounting."""

import pytest

from repro.net.message import Message, MessageKind
from repro.net.stats import TrafficStats
from tests.reference_traffic import record, summary_bytes


def _msg(kind, entries=0):
    return Message(kind=kind, source=0, summary_entries=entries)


def test_empty_stats():
    stats = TrafficStats()
    assert stats.total_messages == 0
    assert stats.total_bytes == 0
    assert stats.summary_overhead_fraction() == 0.0


def test_record_splits_summary_and_net_bytes():
    stats = TrafficStats()
    message = _msg(MessageKind.TUPLE, entries=2)
    record(stats, message)
    assert stats.summary_bytes == summary_bytes(message)
    assert stats.net_data_bytes == message.wire_bytes - summary_bytes(message)
    assert stats.summary_entries == 2


def test_overhead_fraction():
    stats = TrafficStats()
    for _ in range(10):
        record(stats, _msg(MessageKind.TUPLE))
    record(stats, _msg(MessageKind.SUMMARY, entries=1))
    expected = stats.summary_bytes / stats.net_data_bytes
    assert stats.summary_overhead_fraction() == pytest.approx(expected)
    assert 0 < stats.summary_overhead_fraction() < 1


def test_data_messages_counts_tuples_and_summaries():
    stats = TrafficStats()
    record(stats, _msg(MessageKind.TUPLE))
    record(stats, _msg(MessageKind.SUMMARY, entries=1))
    record(stats, _msg(MessageKind.CONTROL))
    assert stats.messages_by_kind[MessageKind.TUPLE.value] == 1
    assert stats.messages_by_kind[MessageKind.SUMMARY.value] == 1
    assert stats.messages_by_kind[MessageKind.CONTROL.value] == 1


def test_as_dict_round_trip():
    stats = TrafficStats()
    record(stats, _msg(MessageKind.TUPLE, entries=1))
    snapshot = stats.as_dict()
    assert snapshot["total_messages"] == 1
    assert snapshot["summary_entries"] == 1
    assert snapshot["summary_overhead_fraction"] == pytest.approx(
        stats.summary_overhead_fraction()
    )
