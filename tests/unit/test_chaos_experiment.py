"""Unit tests for the chaos-sweep experiment layer (no simulation)."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.chaos import (
    CHAOS_FORMAT_VERSION,
    ChaosLevel,
    ChaosRow,
    DEFAULT_GRID,
    build_fault_plan,
    figure,
    compare_chaos,
    format_result,
    level_order,
    parse_grid,
    rows_from_json,
    rows_from_payload,
    rows_to_json,
    rows_to_payload,
    worst_case_seconds,
)
from repro.experiments.harness import get_scale
from repro.net.faults import FaultKind
from repro.telemetry.events import TelemetryEvent
from tests.fault_specs import grid_spec, level_spec


def make_row(**overrides):
    base = dict(
        scale="smoke",
        algorithm="DFTT",
        num_nodes=4,
        seed=2007,
        level="storm",
        loss_probability=0.4,
        partition_s=2.0,
        crash_count=1,
        fault_events=3,
        epsilon=0.21,
        truth_pairs=1000,
        reported_pairs=790,
        total_bytes=320_000.0,
        bytes_lost=91_000.0,
        data_messages=4000,
        messages_blocked=1179.0,
        local_arrivals_dropped=89.0,
        failures_detected=7.0,
        recoveries=7.0,
        recovery_latency_mean_s=0.65,
        recovery_latency_max_s=1.4,
        resyncs=7.0,
        worst_case_s=3.5,
        duration_seconds=9.1,
        recovery_enabled=False,
        restarts=0.0,
        tuples_replayed=0.0,
        rejoin_latency_s=0.0,
        dead_letters=0.0,
        state_transfer_bytes=0.0,
        transfer_bytes_saved=0.0,
        transfer_fallbacks=0.0,
        overload_factor=0.0,
        overload_enabled=False,
        shed_tuples=0.0,
        shed_messages=0.0,
        throttled_seconds=0.0,
        shedding_seconds=0.0,
    )
    base.update(overrides)
    return ChaosRow(**base)


class TestChaosLevel:
    def test_parse_bare_name_is_clean(self):
        assert ChaosLevel.parse("clean") == ChaosLevel("clean")

    def test_parse_full_spec(self):
        level = ChaosLevel.parse("storm@loss=0.4,part=2s,crash=1")
        assert level == ChaosLevel("storm", 0.4, 2.0, 1)

    def test_long_spellings_parse_like_short_ones(self):
        assert ChaosLevel.parse("x@partition=2S,crashes=1,overload=3") == ChaosLevel(
            "x", partition_s=2.0, crash_count=1, overload_factor=3.0
        )

    def test_spec_round_trip(self):
        for level in DEFAULT_GRID + (ChaosLevel("x", 0.125, 3.75, 2),):
            assert ChaosLevel.parse(level_spec(level)) == level

    def test_grid_round_trip(self):
        assert parse_grid(grid_spec(DEFAULT_GRID)) == DEFAULT_GRID

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "storm@loss",  # missing '='
            "storm@loss=high",  # unparsable number
            "storm@wind=3",  # unknown knob
            "storm@loss=1.5",  # probability out of range
            "storm@part=-1",  # negative duration
            "storm@crash=-1",  # negative count
            "bad name@loss=0.1",  # name must be a bare word
            "x@part=nan",  # NaN duration would run with no partition
            "x@over=nan",  # NaN factor would run with no surge
            "x@over=inf",  # ran the cell, then failed converting NaN
            "x@part=inf",  # infinite partition
            "x@loss=0.1,loss=0.2",  # kept the last value
            "x@crash=1,crashes=2",  # an alias counts as the same knob
            "x@part=1,partition=2",
            "x@over=2,overload=3",
        ],
    )
    def test_invalid_levels_raise(self, spec):
        with pytest.raises(ConfigurationError):
            ChaosLevel.parse(spec)

    def test_grid_rejects_duplicates_and_emptiness(self):
        with pytest.raises(ConfigurationError):
            parse_grid("clean; clean")
        with pytest.raises(ConfigurationError):
            parse_grid(" ; ")

    def test_parse_overload_knob(self):
        level = ChaosLevel.parse("surge@over=8")
        assert level == ChaosLevel("surge", overload_factor=8.0)
        assert ChaosLevel.parse(level_spec(level)) == level

    def test_overload_knob_composes_with_others(self):
        level = ChaosLevel.parse("storm@loss=0.2,over=4,crash=1")
        assert level == ChaosLevel("storm", 0.2, 0.0, 1, overload_factor=4.0)
        assert ChaosLevel.parse(level_spec(level)) == level

    @pytest.mark.parametrize(
        "spec",
        [
            "surge@over=1",  # factor must exceed 1
            "surge@over=0.5",  # sub-unit slowdown
            "surge@over=-2",  # negative factor
            "surge@over=slow",  # unparsable number
        ],
    )
    def test_invalid_overload_factor_raises(self, spec):
        with pytest.raises(ConfigurationError):
            ChaosLevel.parse(spec)


class TestFaultPlanBuilder:
    def test_clean_level_builds_empty_plan(self):
        plan = build_fault_plan(ChaosLevel("clean"), get_scale("smoke"), 4)
        assert plan.empty

    def test_severe_level_builds_all_three_classes(self):
        scale = get_scale("smoke")
        plan = build_fault_plan(
            ChaosLevel("severe", 0.45, 3.0, 1), scale, 4
        )
        kinds = {event.kind for event in plan.events}
        assert kinds == {
            FaultKind.LOSS_BURST,
            FaultKind.PARTITION,
            FaultKind.NODE_CRASH,
        }
        span = scale.total_tuples / scale.arrival_rate
        for event in plan.events:
            assert 0 <= event.start_s < span
        crash = next(e for e in plan.events if e.kind is FaultKind.NODE_CRASH)
        assert crash.nodes == (3,)  # highest id first

    def test_crashes_staggered_over_distinct_nodes(self):
        plan = build_fault_plan(
            ChaosLevel("meltdown", crash_count=3), get_scale("smoke"), 8
        )
        crashes = [e for e in plan.events if e.kind is FaultKind.NODE_CRASH]
        assert [e.nodes for e in crashes] == [(7,), (6,), (5,)]
        starts = [e.start_s for e in crashes]
        assert starts == sorted(starts) and len(set(starts)) == 3

    def test_partition_duration_capped_to_half_span(self):
        scale = get_scale("smoke")
        span = scale.total_tuples / scale.arrival_rate
        plan = build_fault_plan(ChaosLevel("split", partition_s=10_000.0), scale, 4)
        (partition,) = plan.events
        assert partition.duration_s <= 0.5 * span + 1e-9

    def test_overload_level_builds_overload_event_on_node_zero(self):
        scale = get_scale("smoke")
        plan = build_fault_plan(ChaosLevel("surge", overload_factor=8.0), scale, 4)
        (event,) = plan.events
        assert event.kind is FaultKind.OVERLOAD
        assert event.nodes == (0,)  # crashes target the highest ids
        assert event.slowdown_factor == 8.0
        span = scale.total_tuples / scale.arrival_rate
        assert event.start_s == pytest.approx(0.25 * span, rel=1e-4)
        assert event.duration_s == pytest.approx(0.50 * span, rel=1e-4)

    def test_too_many_crashes_rejected(self):
        with pytest.raises(ConfigurationError):
            build_fault_plan(ChaosLevel("boom", crash_count=4), get_scale("smoke"), 4)

    def test_plans_are_deterministic(self):
        scale = get_scale("bench")
        level = ChaosLevel("storm", 0.3, 2.0, 1)
        assert build_fault_plan(level, scale, 8) == build_fault_plan(level, scale, 8)

    def test_restartable_plan_keeps_the_same_outage_window(self):
        scale = get_scale("smoke")
        level = ChaosLevel("storm", 0.3, 2.0, 1)
        legacy = build_fault_plan(level, scale, 8)
        restartable = build_fault_plan(level, scale, 8, restartable=True)
        for before, after in zip(legacy.events, restartable.events):
            if after.kind is FaultKind.NODE_CRASH:
                assert after.restartable
                assert after.downtime_s == before.duration_s
                assert after.end_s == before.end_s
            else:
                assert after == before


class TestRecoveryComparison:
    def test_common_truth_reclaims_epsilon(self):
        from repro.experiments.chaos import format_recovery_comparison

        # Legacy crash: truth shrank to 500 alongside the report, so the
        # raw epsilon (0.1) flatters it.  Scored against the recovered
        # run's fuller truth of 1000, the gap is honest: 0.55 vs 0.2.
        baseline = [
            make_row(truth_pairs=500, reported_pairs=450, epsilon=0.1),
            make_row(level="clean", crash_count=0, epsilon=0.01),
        ]
        recovered = [
            make_row(
                truth_pairs=1000,
                reported_pairs=800,
                epsilon=0.2,
                recovery_enabled=True,
                restarts=1.0,
                tuples_replayed=120.0,
                rejoin_latency_s=0.3,
            ),
            make_row(level="clean", crash_count=0, recovery_enabled=True),
        ]
        table = format_recovery_comparison(baseline, recovered)
        assert "0.55" in table and "0.2" in table and "0.35" in table
        assert "clean" not in table  # crash-free cells have nothing to reclaim

    def test_unpaired_rows_are_skipped(self):
        from repro.experiments.chaos import format_recovery_comparison

        table = format_recovery_comparison([make_row()], [])
        assert "no crash cells" in table


def worst_case_event(time, node, stream, active):
    return TelemetryEvent(
        seq=0,
        time=time,
        name="policy.worst_case_mode",
        category="policy",
        node=node,
        attrs={"stream": stream, "active": active},
    )


class TestWorstCaseSeconds:
    def test_closed_intervals_sum(self):
        events = [
            worst_case_event(1.0, 0, "R", True),
            worst_case_event(3.0, 0, "R", False),
            worst_case_event(4.0, 1, "S", True),
            worst_case_event(4.5, 1, "S", False),
        ]
        assert worst_case_seconds(events, end_time=10.0) == pytest.approx(2.5)

    def test_open_interval_closed_at_end(self):
        events = [worst_case_event(6.0, 0, "R", True)]
        assert worst_case_seconds(events, end_time=10.0) == pytest.approx(4.0)

    def test_streams_and_nodes_tracked_independently(self):
        events = [
            worst_case_event(0.0, 0, "R", True),
            worst_case_event(0.0, 0, "S", True),
            worst_case_event(1.0, 0, "R", False),
        ]
        assert worst_case_seconds(events, end_time=2.0) == pytest.approx(3.0)

    def test_unrelated_events_ignored(self):
        other = TelemetryEvent(
            seq=0, time=1.0, name="health.suspected", category="health"
        )
        assert worst_case_seconds([other], end_time=5.0) == 0.0

    def test_duplicate_activation_does_not_restart_interval(self):
        events = [
            worst_case_event(1.0, 0, "R", True),
            worst_case_event(2.0, 0, "R", True),
            worst_case_event(3.0, 0, "R", False),
        ]
        assert worst_case_seconds(events, end_time=10.0) == pytest.approx(2.0)


class TestRowSerialization:
    def test_round_trip(self):
        rows = [make_row(), make_row(level="clean", epsilon=0.07)]
        assert rows_from_json(rows_to_json(rows)) == rows

    def test_canonical_json_is_stable(self):
        rows = [make_row()]
        assert rows_to_json(rows) == rows_to_json(list(rows))
        assert rows_to_json(rows).endswith("\n")

    def test_version_mismatch_rejected(self):
        payload = rows_to_payload([make_row()])
        payload["format_version"] = CHAOS_FORMAT_VERSION + 1
        with pytest.raises(ConfigurationError):
            rows_from_payload(payload)

    def test_unknown_row_field_rejected(self):
        payload = rows_to_payload([make_row()])
        payload["rows"][0]["surprise"] = 1
        with pytest.raises(ConfigurationError):
            rows_from_payload(payload)

    def test_missing_row_field_rejected(self):
        payload = rows_to_payload([make_row()])
        del payload["rows"][0]["epsilon"]
        with pytest.raises(ConfigurationError):
            rows_from_payload(payload)

    def test_unknown_top_level_key_rejected(self):
        payload = rows_to_payload([make_row()])
        payload["extra"] = True
        with pytest.raises(ConfigurationError):
            rows_from_payload(payload)

    def test_non_object_json_rejected(self):
        with pytest.raises(ConfigurationError):
            rows_from_json("[]")
        with pytest.raises(ConfigurationError):
            rows_from_json("not json")


class TestRendering:
    def rows(self):
        return [
            make_row(algorithm="DFTT", level="clean", epsilon=0.05, bytes_lost=0.0),
            make_row(algorithm="DFTT", level="storm", epsilon=0.2),
            make_row(algorithm="BASE", level="clean", epsilon=0.0, bytes_lost=0.0),
            make_row(algorithm="BASE", level="storm", epsilon=0.12),
        ]

    def test_table_lists_every_cell(self):
        table = format_result(self.rows())
        assert "DFTT" in table and "BASE" in table
        assert "clean" in table and "storm" in table
        assert "worst-case s" in table

    def test_level_order_is_first_appearance(self):
        assert level_order(self.rows()) == ["clean", "storm"]

    def test_figure_contains_both_panels(self):
        chart = figure(self.rows())
        assert "epsilon vs fault level" in chart
        assert "0=clean" in chart and "1=storm" in chart
        assert "kB lost" in chart

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            figure([])


class TestChaosRegressionGate:
    def test_identical_rows_pass_with_zero_drift(self):
        rows = [make_row(), make_row(algorithm="BASE")]
        report = compare_chaos(rows, [make_row(), make_row(algorithm="BASE")])
        assert report.passed
        assert all(drift.relative_change == 0.0 for drift in report.drifts)

    def test_epsilon_drift_fails_the_gate(self):
        baseline = [make_row()]
        candidate = [make_row(epsilon=0.21 * 1.5)]
        report = compare_chaos(baseline, candidate, tolerance=0.15)
        assert not report.passed
        assert any(d.metric == "epsilon" for d in report.regressions)

    def test_missing_cell_fails_the_gate(self):
        baseline = [make_row(), make_row(level="clean")]
        report = compare_chaos(baseline, [make_row()])
        assert not report.passed
        assert len(report.unmatched_baseline) == 1

    def test_duplicate_baseline_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_chaos([make_row(), make_row()], [make_row()])

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_chaos([make_row()], [make_row()], tolerance=-0.1)
