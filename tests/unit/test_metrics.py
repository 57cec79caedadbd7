"""Unit tests for error, throughput, and result-collection metrics."""

import pytest

from repro.errors import ConfigurationError
from repro.join.hash_join import JoinResult
from repro.metrics.accounting import ResultCollector
from repro.metrics.error import epsilon_error
from repro.metrics.throughput import ThroughputSeries
from repro.streams.tuples import StreamId, StreamTuple


def make_result(r_key=1, s_key=1):
    r = StreamTuple(stream=StreamId.R, key=r_key, origin_node=0, arrival_index=0)
    s = StreamTuple(stream=StreamId.S, key=s_key, origin_node=1, arrival_index=0)
    return JoinResult(r, s, produced_at_node=0)


class TestEpsilonError:
    def test_equation_one(self):
        assert epsilon_error(100, 85) == pytest.approx(0.15)

    def test_no_truth_means_no_error(self):
        assert epsilon_error(0, 0) == 0.0

    def test_overreporting_clamped(self):
        assert epsilon_error(10, 15) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            epsilon_error(-1, 0)
        with pytest.raises(ConfigurationError):
            epsilon_error(1, -1)


class TestThroughputSeries:
    def test_bucketing_by_second(self):
        series = ThroughputSeries()
        series.record(0.2)
        series.record(0.9)
        series.record(1.5)
        assert series.series() == [(0, 2), (1, 1)]
        assert series.total == 3

    def test_sustained_rate_is_the_busiest_half(self):
        series = ThroughputSeries()
        assert series.sustained_rate() == 0.0
        for _ in range(10):
            series.record(0.5)
        series.record(1.5)
        assert series.sustained_rate() == 10.0
        series.record(2.5, count=4)
        assert series.sustained_rate() == 10.0  # one of three seconds
        series.record(3.5, count=2)
        assert series.sustained_rate() == 7.0  # two of four

    def test_nonpositive_counts_ignored(self):
        series = ThroughputSeries()
        series.record(1.0, count=0)
        assert series.total == 0


class TestResultCollector:
    def test_deduplicates_pairs(self):
        collector = ResultCollector()
        result = make_result()
        assert collector.record(result, 0.0)
        assert not collector.record(result, 1.0)
        assert collector.reported_pairs == 1
        assert collector.duplicates == 1
        assert collector.raw_reports == 2

    def test_spurious_excluded(self):
        collector = ResultCollector()
        assert not collector.record(make_result(), 0.0, is_true=False)
        assert collector.reported_pairs == 0
        assert collector.spurious == 1

    def test_distinct_pairs_counted(self):
        collector = ResultCollector()
        collector.record(make_result(), 0.0)
        collector.record(make_result(), 0.0)  # different tuple ids
        assert collector.reported_pairs == 2

    def test_throughput_recorded_for_new_pairs_only(self):
        collector = ResultCollector()
        result = make_result()
        collector.record(result, 0.5)
        collector.record(result, 0.6)
        assert collector.throughput.total == 1
