"""Golden-pinned chaos sweep: determinism under injected faults.

Mirrors ``test_fastpath_determinism.py`` at the experiment layer: the
smoke-scale sweep at the preset seed (2007) must produce *byte-identical*
canonical ChaosRow JSON across two in-process runs -- fault injection,
reliable transport, telemetry read-out and all -- and the rows, the
printed table and figure, and the gate's report must equal the goldens
under ``data/`` byte for byte, so the pin holds across commits too.  On
top of the pin, the rows must tell the chaos story: faulted cells lose
messages, the failure detector fires and recovers, and the persisted
form round-trips exactly.
"""

from pathlib import Path

import pytest

from repro.config import Algorithm
from repro.experiments import chaos
from repro.experiments.chaos import compare_chaos, load_chaos_rows, save_chaos_rows

DATA = Path(__file__).parent / "data"
GRID = chaos.parse_grid("clean; squall@loss=0.25; storm@loss=0.5,part=2s,crash=1")
ALGORITHMS = (Algorithm.BASE, Algorithm.DFTT, Algorithm.SKCH)


@pytest.fixture(scope="module")
def sweep():
    return chaos.run("smoke", algorithms=ALGORITHMS, grid=GRID)


def test_smoke_scale_uses_the_pinned_seed(sweep):
    assert {row.seed for row in sweep} == {2007}


def test_sweep_covers_the_full_grid(sweep):
    assert len(sweep) == len(ALGORITHMS) * len(GRID)
    assert {row.algorithm for row in sweep} == {a.value for a in ALGORITHMS}
    assert chaos.level_order(sweep) == ["clean", "squall", "storm"]


def test_rerun_is_byte_identical(sweep):
    again = chaos.run("smoke", algorithms=ALGORITHMS, grid=GRID)
    assert chaos.rows_to_json(again) == chaos.rows_to_json(sweep)


def test_chaos_cells_actually_saw_chaos(sweep):
    for row in sweep:
        if row.level == "clean":
            assert row.fault_events == 0
            assert row.messages_blocked == 0
            assert row.bytes_lost == 0
        else:
            assert row.fault_events > 0
            assert row.messages_blocked > 0
            assert row.bytes_lost > 0
        assert 0.0 <= row.epsilon <= 1.0
        assert row.total_bytes > 0


def test_storm_cells_detect_and_recover(sweep):
    storms = [row for row in sweep if row.level == "storm"]
    assert storms
    for row in storms:
        # The crash + partition outlast the suspect timeout: every
        # algorithm's mesh must notice, recover, and resync.
        assert row.failures_detected > 0
        assert row.recoveries > 0
        assert row.recovery_latency_mean_s > 0
        assert row.recovery_latency_max_s >= row.recovery_latency_mean_s
        assert row.resyncs > 0
        assert row.local_arrivals_dropped > 0  # the crashed node's arrivals


def test_persisted_rows_round_trip_exactly(sweep, tmp_path):
    path = tmp_path / "chaos.json"
    save_chaos_rows(sweep, path)
    assert load_chaos_rows(path) == list(sweep)
    # The file itself is the canonical bytes the CI golden job diffs.
    assert path.read_text() == chaos.rows_to_json(sweep)


def test_sweep_gates_cleanly_against_itself(sweep):
    report = compare_chaos(sweep, chaos.run("smoke", algorithms=ALGORITHMS, grid=GRID))
    assert report.passed
    assert all(drift.relative_change == 0.0 for drift in report.drifts)


def table_and_figure(rows):
    """What the sweep prints for ``rows`` without ``--recovery``."""
    return chaos.format_result(rows) + "\n\n" + chaos.figure(rows) + "\n"


def gate_report(rows):
    """The ``--baseline`` report of the sweep against itself."""
    return compare_chaos(rows, rows).format() + "\n"


@pytest.mark.parametrize(
    "golden, render",
    [
        ("chaos_sweep_rows.json", chaos.rows_to_json),
        ("chaos_sweep_table.txt", table_and_figure),
        ("chaos_sweep_gate.txt", gate_report),
    ],
    ids=["rows", "table-and-figure", "gate-report"],
)
def test_output_matches_the_committed_golden(sweep, golden, render):
    assert render(sweep) == (DATA / golden).read_text()


def test_committed_rows_gate_the_sweep_with_zero_drift(sweep):
    """A results file written before the column table still loads and
    gates: every cell matched, every metric's drift exactly zero."""
    report = compare_chaos(load_chaos_rows(DATA / "chaos_sweep_rows.json"), sweep)
    assert report.passed and not report.unmatched_candidate
    assert len(report.drifts) == 9 * len(sweep)
    assert all(drift.relative_change == 0.0 for drift in report.drifts)
