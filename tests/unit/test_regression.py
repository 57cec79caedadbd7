"""Unit tests for the chaos baseline gate (matching, drift, report).

The gate's one entry point is :func:`compare_chaos`; its behaviours --
the cell key and the compared metrics it reads off ``COLUMNS``,
tolerance, unmatched and duplicate cells, the rendered table -- are
checked with hand-built chaos rows.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.chaos import compare_chaos
from tests.unit.test_chaos_experiment import make_row


def test_identical_results_pass():
    report = compare_chaos([make_row()], [make_row()])
    assert report.passed
    assert [drift.metric for drift in report.drifts] == [
        "epsilon",
        "total_bytes",
        "bytes_lost",
        "messages_blocked",
        "recovery_latency_mean_s",
        "worst_case_s",
        "dead_letters",
        "tuples_replayed",
        "rejoin_latency_s",
    ]
    assert all(drift.within_tolerance for drift in report.drifts)


def test_drift_beyond_tolerance_flags_regression():
    baseline = make_row(epsilon=0.15)
    worse = make_row(epsilon=0.40)
    report = compare_chaos([baseline], [worse], tolerance=0.10)
    assert not report.passed
    metrics = {drift.metric for drift in report.regressions}
    assert metrics == {"epsilon"}


def test_drift_within_tolerance_passes():
    report = compare_chaos(
        [make_row(epsilon=0.150)], [make_row(epsilon=0.155)], tolerance=0.10
    )
    assert report.passed
    (drift,) = [d for d in report.drifts if d.metric == "epsilon"]
    assert drift.relative_change == pytest.approx(0.005 / 0.150)


def test_unmatched_runs_reported():
    report = compare_chaos([make_row(seed=1)], [make_row(seed=2)])
    assert not report.passed
    assert len(report.unmatched_baseline) == 1
    assert len(report.unmatched_candidate) == 1


def test_extra_candidate_runs_do_not_fail_the_gate():
    report = compare_chaos([make_row(seed=1)], [make_row(seed=1), make_row(seed=2)])
    assert report.passed
    assert len(report.unmatched_candidate) == 1


def test_duplicate_baseline_rejected():
    with pytest.raises(ConfigurationError):
        compare_chaos([make_row(), make_row()], [])


def test_negative_tolerance_rejected():
    with pytest.raises(ConfigurationError):
        compare_chaos([], [], tolerance=-0.1)


def test_chaos_key_uses_identifying_fields():
    a = make_row(seed=1)
    same_cell = compare_chaos([a], [make_row(seed=1, epsilon=0.9)])
    assert same_cell.drifts[0].key == ("smoke", "DFTT", 4, "storm", 1, False)
    for other in (
        make_row(scale="bench", seed=1),
        make_row(seed=1, algorithm="BLOOM"),
        make_row(seed=1, num_nodes=8),
        make_row(seed=1, level="clean"),
        make_row(seed=2),
        # ``--recovery`` emits each cell twice; the pair must not collide.
        make_row(seed=1, recovery_enabled=True),
    ):
        report = compare_chaos([a], [other])
        assert not report.drifts and len(report.unmatched_candidate) == 1


def test_format_renders_table():
    report = compare_chaos([make_row()], [make_row(epsilon=0.5)])
    text = report.format()
    assert "smoke/DFTT" in text
    assert "epsilon" in text
    assert "1 regression(s); 0 unmatched baseline run(s)" in text


def test_round_trip_with_persistence(tmp_path):
    from repro.experiments.chaos import load_chaos_rows, save_chaos_rows

    path = tmp_path / "baseline.json"
    save_chaos_rows([make_row()], path)
    report = compare_chaos(load_chaos_rows(path), [make_row()])
    assert report.passed
    assert all(drift.relative_change == 0.0 for drift in report.drifts)
