"""Integration tests for overload protection, pinned to seeds.

Three contracts, end to end through the CLI:

* **Off means off** -- with overload protection disabled (the default),
  runs are byte-identical to goldens captured before the subsystem
  existed.
* **Runs agree** -- a shedding run produces byte-identical JSON when
  repeated, and byte-identical chaos rows when served from the cache.
* **Bounds bind** -- under a saturating overload fault, every node's
  peak queue depth respects ``--queue-bound``, tuples are shed and
  charged honestly, and the same fault with no bound grows the queue
  far past it.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import Algorithm

DATA = Path(__file__).parent / "data"

DFTT_ARGS = [
    "--algorithm", "DFTT", "--nodes", "5", "--tuples", "1500",
    "--window", "128", "--kappa", "16", "--seed", "19", "--rate", "300",
    "--reliable",
]
SKCH_ARGS = [
    "--algorithm", "SKCH", "--nodes", "4", "--tuples", "1200",
    "--window", "128", "--kappa", "16", "--seed", "7", "--rate", "300",
]
OVERLOAD_ARGS = [
    "--algorithm", "DFTT", "--nodes", "5", "--tuples", "1500",
    "--window", "128", "--kappa", "16", "--seed", "19", "--rate", "300",
    "--reliable", "--fault-plan", "overload@t=1,d=3,node=1,factor=12",
]


def run_json(capsys, argv):
    assert main(argv + ["--json"]) == 0
    return capsys.readouterr().out


class TestOffMeansOff:
    """Disabled overload protection must not move a single byte."""

    @pytest.mark.parametrize(
        "args, golden",
        [
            (DFTT_ARGS, "pre_overload_dftt_seed19.json"),
            (SKCH_ARGS, "pre_overload_skch_seed7.json"),
        ],
        ids=["dftt-seed19", "skch-seed7"],
    )
    def test_serial_matches_pre_overload_golden(self, capsys, args, golden):
        expected = (DATA / golden).read_text()
        assert run_json(capsys, args) == expected

    def test_disabled_run_has_no_overload_keys(self, capsys):
        payload = json.loads(run_json(capsys, SKCH_ARGS))
        assert "overload" not in payload


class TestEnginesAgree:
    def test_repeated_runs_are_deterministic(self, capsys):
        argv = OVERLOAD_ARGS + ["--queue-bound", "8"]
        assert run_json(capsys, argv) == run_json(capsys, argv)

    def test_cached_overload_sweep_is_byte_identical(self, tmp_path):
        """One shedding chaos cell: cold run == warm (cached) run."""
        from repro.experiments.chaos import (
            ChaosLevel,
            rows_to_json,
            run,
        )
        from repro.overload import OverloadSettings
        from repro.parallel import RunCache

        kwargs = dict(
            scale="smoke",
            algorithms=(Algorithm.DFTT,),
            grid=(ChaosLevel.parse("surge@over=8"),),
            num_nodes=4,
            overload=OverloadSettings.for_queue_bound(16),
            cache=RunCache(str(tmp_path)),
        )
        cold = run(**kwargs)
        warm = run(**kwargs)
        assert rows_to_json(cold) == rows_to_json(warm)
        assert cold[0].shed_tuples > 0


class TestBoundsBind:
    def test_queue_bound_holds_under_saturation(self, capsys):
        payload = json.loads(
            run_json(capsys, OVERLOAD_ARGS + ["--queue-bound", "8", "--verbose"])
        )
        depths = {
            node: diag["max_queue_depth"]
            for node, diag in payload["node_diagnostics"].items()
        }
        assert depths, "verbose run must report per-node diagnostics"
        assert all(depth <= 8 for depth in depths.values()), depths
        overload = payload["overload"]
        assert overload["shed_tuples"] > 0
        assert overload["mode_transitions"] > 0
        assert overload["shedding_seconds"] > 0

    def test_unbounded_queue_grows_past_the_bound(self, capsys):
        payload = json.loads(run_json(capsys, OVERLOAD_ARGS + ["--verbose"]))
        worst = max(
            diag["max_queue_depth"]
            for diag in payload["node_diagnostics"].values()
        )
        assert worst > 8

    def test_shed_tuples_are_charged_against_the_oracle(self, capsys):
        """Shedding degrades epsilon but keeps it bounded: the oracle
        still counts pairs the shed tuples would have completed."""
        bounded = json.loads(
            run_json(capsys, OVERLOAD_ARGS + ["--queue-bound", "8"])
        )
        unbounded = json.loads(run_json(capsys, OVERLOAD_ARGS))
        assert bounded["metrics"]["truth_pairs"] > 0
        assert bounded["metrics"]["epsilon"] >= unbounded["metrics"]["epsilon"]
        assert bounded["metrics"]["epsilon"] < 1.0
