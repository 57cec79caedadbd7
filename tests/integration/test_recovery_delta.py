"""Integration tests: watermark-delta state transfer end to end.

The delta protocol is a pure wire-cost optimization: a rejoining node
must land in *exactly* the state full snapshots produce -- same stats,
same epsilon, same event timeline -- while strictly fewer resync bytes
cross the wire on large windows.  A seed-pinned three-node BLOOM cell
(large window, so snapshots dominate resync traffic) crashes node 2
mid-run with a restart scheduled, once as configured and once with the
requester's claims cleared after restore (so every serving peer answers
with full snapshots), and the results are compared after stripping only
the transfer-accounting fields the two runs legitimately disagree on.
"""

import contextlib
import dataclasses
import json

import pytest

from repro.config import Algorithm
from repro.core.system import DistributedJoinSystem
from repro.experiments.harness import get_scale, system_config
from repro.net.faults import FaultPlan
from repro.net.reliable import ReliabilitySettings
from repro.recovery import RecoverySettings, coordinator
from repro.recovery.coordinator import RecoveryCoordinator

NUM_NODES = 3
CRASH_SPEC = "crash@t=2,d=1.5,node=2,downtime=1.5"
WINDOW = 2048
"""Large windows are where the delta pays: at kappa 16 the BLOOM
snapshot is 128 entries (5120 counters) per stream per query."""

TRANSFER_EVENTS = {"recovery.state_transfer", "recovery.transfer_fallback"}


def make_config(telemetry=False, num_nodes=NUM_NODES, crash_spec=CRASH_SPEC):
    plan = FaultPlan.parse(crash_spec, num_nodes=num_nodes)
    config = system_config(
        get_scale("smoke"),
        Algorithm.BLOOM,
        num_nodes=num_nodes,
        kappa=16.0,
        total_tuples=1_500,
        telemetry=telemetry,
        faults=plan,
        reliability=ReliabilitySettings(enabled=True),
        recovery=RecoverySettings(enabled=True, checkpoint_interval_s=0.5),
    )
    return dataclasses.replace(config, window_size=WINDOW, seed=7)


@contextlib.contextmanager
def protocol(claims=True, history_limit=None):
    """Clear every restore's claims, or shrink the serving history ring."""
    with pytest.MonkeyPatch.context() as patch:
        if not claims:
            restore = RecoveryCoordinator._restore_state

            def restore_without_claims(self, state):
                restore(self, state)
                self.claims.clear()

            patch.setattr(
                RecoveryCoordinator, "_restore_state", restore_without_claims
            )
        if history_limit is not None:
            patch.setattr(coordinator, "DELTA_HISTORY_LIMIT", history_limit)
        yield


def run_system(claims=True, history_limit=None, **config_args):
    with protocol(claims, history_limit):
        system = DistributedJoinSystem(make_config(**config_args))
        result = system.run()
    return system, result


def normalized(result) -> str:
    """Canonical JSON with the transfer accounting stripped.

    Only the transfer byte counters (recovery section, per-node
    diagnostics, traffic totals that include the smaller responses) may
    differ between the two runs; everything else -- epsilon, pair counts,
    durations, per-query stats, message counts -- must match byte for
    byte.
    """
    payload = json.loads(json.dumps(dataclasses.asdict(result)))
    for key in list(payload["recovery"]):
        if key.startswith("state_transfer"):
            payload["recovery"].pop(key)
    for diagnostics in payload["node_diagnostics"].values():
        for key in list(diagnostics):
            if key.startswith("state_transfer"):
                diagnostics.pop(key)
    for key in (
        "total_bytes",
        "summary_bytes",
        "summary_entries",
        "summary_overhead_fraction",
    ):
        payload["traffic"].pop(key)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def delta_result():
    return run_system()[1]


@pytest.fixture(scope="module")
def full_result():
    return run_system(claims=False)[1]


class TestModeEquivalence:
    def test_results_identical_outside_transfer_accounting(
        self, delta_result, full_result
    ):
        assert normalized(delta_result) == normalized(full_result)

    def test_epsilon_and_pairs_are_bitwise_equal(self, delta_result, full_result):
        assert delta_result.epsilon == full_result.epsilon
        assert delta_result.truth_pairs == full_result.truth_pairs
        assert delta_result.reported_pairs == full_result.reported_pairs
        assert delta_result.duration_seconds == full_result.duration_seconds

    def test_event_timelines_identical_modulo_transfer_events(self):
        streams = {}
        for delta in (True, False):
            system, _ = run_system(claims=delta, telemetry=True)
            streams[delta] = [
                (
                    event.name,
                    event.time,
                    event.node,
                    event.dur_s,
                    json.dumps(event.attrs, sort_keys=True, default=str),
                )
                for event in system.telemetry.events()
                if event.name not in TRANSFER_EVENTS
                and not (
                    # net.* traces of the resync responses legitimately
                    # carry the smaller honest byte size in delta mode.
                    event.name.startswith("net.")
                    and event.attrs.get("kind") == "state_transfer"
                )
            ]
        assert streams[True] == streams[False]

    def test_delta_mode_emits_transfer_events(self):
        system, _ = run_system(telemetry=True)
        transfers = [
            event
            for event in system.telemetry.events()
            if event.name == "recovery.state_transfer"
        ]
        assert transfers
        assert any(event.attrs["kind"] == "delta" for event in transfers)
        assert all(event.attrs["size_bytes"] > 0 for event in transfers)


class TestDeltaSavings:
    def test_resync_bytes_strictly_smaller_under_delta(
        self, delta_result, full_result
    ):
        on = delta_result.recovery
        off = full_result.recovery
        assert on["state_transfer_bytes"] < off["state_transfer_bytes"]
        assert on["state_transfer_bytes_saved"] > 0
        assert on["state_transfer_delta_bytes"] > 0
        assert on["state_transfer_fallbacks"] == 0.0

    def test_full_mode_never_reports_delta_accounting(self, full_result):
        off = full_result.recovery
        assert off["state_transfer_delta_bytes"] == 0.0
        assert off["state_transfer_bytes_saved"] == 0.0
        assert off["state_transfer_fallbacks"] == 0.0


class TestFallback:
    @pytest.fixture(scope="class")
    def truncated_result(self):
        # A one-deep snapshot ring cannot cover a watermark from before
        # the outage: every serving peer must fall back to the full
        # snapshot, exactly once per response.
        return run_system(
            history_limit=1,
            num_nodes=2,
            crash_spec="crash@t=2,d=1.5,node=1,downtime=1.5",
        )[1]

    def test_truncated_history_falls_back_to_full_snapshots(
        self, truncated_result
    ):
        recovery = truncated_result.recovery
        assert recovery["state_transfer_fallbacks"] == 1.0
        assert recovery["state_transfer_delta_bytes"] == 0.0
        assert recovery["state_transfer_bytes_saved"] == 0.0
        assert recovery["state_transfer_full_bytes"] > 0

    def test_requester_still_rejoins_cleanly(self, truncated_result):
        recovery = truncated_result.recovery
        assert recovery["restarts"] == 1.0
        assert recovery["rejoins_clean"] == 1.0

    def test_fallback_event_fires_exactly_once(self):
        system, _ = run_system(
            history_limit=1,
            num_nodes=2,
            crash_spec="crash@t=2,d=1.5,node=1,downtime=1.5",
            telemetry=True,
        )
        fallbacks = [
            event
            for event in system.telemetry.events()
            if event.name == "recovery.transfer_fallback"
        ]
        assert len(fallbacks) == 1
