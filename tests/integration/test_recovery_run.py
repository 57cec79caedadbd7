"""Integration tests: checkpoint/restart recovery end to end.

A seed-pinned three-node run crashes node 2 mid-stream with a restart
scheduled (``downtime=``).  With recovery enabled the node must climb
back to LIVE through the full DOWN -> RESTORING -> CATCHING_UP ladder,
replay its locally logged arrivals, and win back join accuracy relative
to the same seed with recovery disabled -- and both runs must be
byte-identical across reruns, because the whole subsystem is built on
the no-new-randomness rule.
"""

import dataclasses
import json

import pytest

from repro.config import Algorithm
from repro.core.system import run_experiment
from repro.experiments.harness import get_scale, system_config
from repro.net.faults import FaultPlan
from repro.net.reliable import ReliabilitySettings
from repro.recovery import RecoveryPhase, RecoverySettings
from repro.recovery.coordinator import CATCHUP_TIMEOUT_S, RESTORE_DELAY_S
from repro.telemetry import (
    JsonlStreamWriter,
    build_manifest,
    export_jsonl,
)

NUM_NODES = 3
CRASH_SPEC = "crash@t=2,d=1.5,node=2,downtime=1.5"

RECOVERY = RecoverySettings(enabled=True)


def make_config(recovery=None, faults_spec=CRASH_SPEC, telemetry=False):
    plan = (
        FaultPlan.parse(faults_spec, num_nodes=NUM_NODES)
        if faults_spec is not None
        else None
    )
    config = system_config(
        get_scale("smoke"),
        Algorithm.DFTT,
        num_nodes=NUM_NODES,
        kappa=16.0,
        total_tuples=1_500,
        telemetry=telemetry,
        faults=plan,
        reliability=ReliabilitySettings(enabled=True),
        recovery=recovery,
    )
    return dataclasses.replace(config, seed=7)


@pytest.fixture(scope="module")
def recovered_result():
    return run_experiment(make_config(recovery=RECOVERY))


@pytest.fixture(scope="module")
def legacy_result():
    return run_experiment(make_config(recovery=None))


class TestRejoin:
    def test_crashed_node_returns_to_live(self, recovered_result):
        recovery = recovered_result.recovery
        assert recovery["restarts"] == 1.0
        assert recovery["rejoins_clean"] + recovery["rejoins_degraded"] == 1.0

    def test_checkpoints_were_taken_and_are_durable(self, recovered_result):
        recovery = recovered_result.recovery
        assert recovery["checkpoints_taken"] > 0
        assert recovery["checkpoint_bytes"] > 0

    def test_logged_arrivals_are_replayed(self, recovered_result):
        recovery = recovered_result.recovery
        assert recovery["tuples_logged"] > 0
        assert recovery["tuples_replayed"] == recovery["tuples_logged"]
        assert recovery["replay_dropped"] == 0.0

    def test_rejoin_latency_is_bounded(self, recovered_result):
        # A rejoin can never take longer than restore + the catch-up
        # deadline; a clean rejoin typically beats the deadline by far.
        recovery = recovered_result.recovery
        bound = RESTORE_DELAY_S + CATCHUP_TIMEOUT_S + 1e-9
        assert 0.0 < recovery["rejoin_latency_max_s"] <= bound

    def test_legacy_crash_has_no_recovery_machinery(self, legacy_result):
        assert legacy_result.recovery == {}
        assert legacy_result.faults["local_arrivals_dropped"] > 0


class TestAccuracyReclaimed:
    def test_recovery_reports_strictly_more_pairs(
        self, recovered_result, legacy_result
    ):
        assert recovered_result.reported_pairs > legacy_result.reported_pairs

    def test_recovery_restores_ground_truth_coverage(
        self, recovered_result, legacy_result
    ):
        # Replay puts the crashed node's arrivals back in front of the
        # oracle, so the recovered truth must dominate the legacy one.
        assert recovered_result.truth_pairs > legacy_result.truth_pairs

    def test_epsilon_lower_on_a_common_truth(self, recovered_result, legacy_result):
        # Raw epsilons are measured against different truths (a legacy
        # crash shrinks the truth along with the report), so the honest
        # comparison scores both reports against the larger truth.
        truth = max(recovered_result.truth_pairs, legacy_result.truth_pairs)
        eps_on = abs(truth - recovered_result.reported_pairs) / truth
        eps_off = abs(truth - legacy_result.reported_pairs) / truth
        assert eps_on < eps_off


def canonical_json(result) -> str:
    """Every field of the result (all 22), as sorted-keys JSON."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


class TestRerunIdentity:
    def test_recovered_run_is_byte_identical(self, recovered_result):
        rerun = run_experiment(make_config(recovery=RECOVERY))
        assert canonical_json(recovered_result) == canonical_json(rerun)

    def test_legacy_run_is_byte_identical(self, legacy_result):
        rerun = run_experiment(make_config(recovery=None))
        assert canonical_json(legacy_result) == canonical_json(rerun)


class TestStreamedTelemetry:
    def test_stream_writer_matches_buffered_export(self, tmp_path):
        from repro.core.system import DistributedJoinSystem

        config = make_config(recovery=RECOVERY, telemetry=True)
        system = DistributedJoinSystem(config)
        manifest = build_manifest(config)
        streamed = tmp_path / "streamed.jsonl"
        writer = JsonlStreamWriter(streamed, manifest=manifest)
        try:
            system.telemetry.add_event_sink(writer.on_event)
            system.run()
        finally:
            writer.close()
        buffered = export_jsonl(system.telemetry, tmp_path / "buffered.jsonl", manifest)
        assert streamed.read_bytes() == buffered.read_bytes()
        assert writer.events_written == len(list(system.telemetry.events()))

    def test_recovery_phases_visible_in_machine_history(self):
        from repro.core.system import DistributedJoinSystem

        system = DistributedJoinSystem(make_config(recovery=RECOVERY))
        system.run()
        machine = system.nodes[2].recovery.machine
        assert machine.phase is RecoveryPhase.LIVE
        phases = [phase for _, _, phase in machine.history]
        assert phases[:3] == [
            RecoveryPhase.DOWN,
            RecoveryPhase.RESTORING,
            RecoveryPhase.CATCHING_UP,
        ]


class TestDashboard:
    def test_frames_show_each_recovering_node_phase(self, monkeypatch):
        import io

        from repro.core.system import DistributedJoinSystem
        from repro.telemetry import dashboard

        monkeypatch.setattr(dashboard, "DASHBOARD_INTERVAL_S", 1.0)
        config = make_config(recovery=RECOVERY, telemetry=True)
        config = dataclasses.replace(
            config,
            telemetry=dataclasses.replace(config.telemetry, dashboard=True),
        )
        system = DistributedJoinSystem(config)
        buffer = io.StringIO()
        system.dashboard.stream = buffer
        system.run()
        lines = [
            line
            for line in buffer.getvalue().splitlines()
            if line.startswith("recovery: ")
        ]
        assert len(lines) == system.dashboard.frames_rendered > 1
        assert "recovery: 0:live  1:live  2:down" in lines
        assert lines[-1] == "recovery: 0:live  1:live  2:live"
