"""Unit tests for the rejoin state machine (pure transition table)."""

import pytest

from repro.errors import SimulationError
from repro.recovery import RecoveryMachine, RecoveryPhase
from repro.recovery.machine import _TRANSITIONS, TRIGGERS


class TestTransitions:
    def test_happy_path_clean_rejoin(self):
        machine = RecoveryMachine(node_id=3)
        assert machine.phase is RecoveryPhase.LIVE
        assert machine.apply("crash", 1.0) is RecoveryPhase.DOWN
        assert machine.apply("restart", 2.0) is RecoveryPhase.RESTORING
        assert machine.apply("restored", 2.1) is RecoveryPhase.CATCHING_UP
        assert machine.apply("synced", 2.5) is RecoveryPhase.LIVE
        assert not machine.degraded
        assert machine.rejoin_latencies == [pytest.approx(0.5)]

    def test_timeout_rejoin_is_degraded(self):
        machine = RecoveryMachine(node_id=0)
        machine.apply("crash", 1.0)
        machine.apply("restart", 2.0)
        machine.apply("restored", 2.1)
        machine.apply("timeout", 4.0)
        assert machine.phase is RecoveryPhase.LIVE
        assert machine.degraded
        assert machine.rejoin_latencies == [pytest.approx(2.0)]

    def test_clean_rejoin_clears_degraded_flag(self):
        machine = RecoveryMachine(node_id=0)
        for trigger, time in [
            ("crash", 1.0),
            ("restart", 2.0),
            ("restored", 2.1),
            ("timeout", 4.0),
            ("crash", 5.0),
            ("restart", 6.0),
            ("restored", 6.1),
            ("synced", 6.2),
        ]:
            machine.apply(trigger, time)
        assert not machine.degraded
        assert len(machine.rejoin_latencies) == 2

    @pytest.mark.parametrize(
        "phase",
        [RecoveryPhase.LIVE, RecoveryPhase.RESTORING, RecoveryPhase.CATCHING_UP],
    )
    def test_crash_legal_from_every_up_phase(self, phase):
        machine = RecoveryMachine(node_id=0)
        machine.phase = phase
        assert machine.can_apply("crash")
        assert machine.apply("crash", 1.0) is RecoveryPhase.DOWN

    def test_mid_rejoin_crash_discards_pending_latency(self):
        machine = RecoveryMachine(node_id=0)
        machine.apply("crash", 1.0)
        machine.apply("restart", 2.0)
        machine.apply("crash", 2.05)  # dies again while restoring
        machine.apply("restart", 3.0)
        machine.apply("restored", 3.1)
        machine.apply("synced", 3.4)
        # Only the completed rejoin counts, measured from its own restart.
        assert machine.rejoin_latencies == [pytest.approx(0.4)]

    def test_invalid_triggers_raise_simulation_error(self):
        for phase in RecoveryPhase:
            for trigger in TRIGGERS:
                machine = RecoveryMachine(node_id=0)
                machine.phase = phase
                if (phase, trigger) in _TRANSITIONS:
                    continue
                assert not machine.can_apply(trigger)
                with pytest.raises(SimulationError):
                    machine.apply(trigger, 0.0)

    def test_unknown_trigger_rejected(self):
        with pytest.raises(SimulationError):
            RecoveryMachine(node_id=0).apply("reboot", 0.0)


class TestFlagsAndCounters:
    def test_is_live_and_is_serving(self):
        machine = RecoveryMachine(node_id=0)
        assert machine.phase is RecoveryPhase.LIVE and machine.is_serving
        machine.apply("crash", 1.0)
        assert not machine.phase is RecoveryPhase.LIVE and not machine.is_serving
        machine.apply("restart", 2.0)
        assert not machine.is_serving
        machine.apply("restored", 2.1)
        assert machine.is_serving and not machine.phase is RecoveryPhase.LIVE
        machine.apply("synced", 2.2)
        assert machine.phase is RecoveryPhase.LIVE and machine.is_serving

    def test_history_records_every_transition(self):
        machine = RecoveryMachine(node_id=0)
        machine.apply("crash", 1.0)
        machine.apply("restart", 2.0)
        assert machine.history == [
            (1.0, "crash", RecoveryPhase.DOWN),
            (2.0, "restart", RecoveryPhase.RESTORING),
        ]

    def test_counters(self):
        machine = RecoveryMachine(node_id=0)
        assert machine.counters() == {
            "transitions": 0.0,
            "rejoins_completed": 0.0,
        }
        machine.apply("crash", 1.0)
        machine.apply("restart", 2.0)
        machine.apply("restored", 2.1)
        machine.apply("synced", 2.3)
        counters = machine.counters()
        assert counters["transitions"] == 4.0
        assert counters["rejoins_completed"] == 1.0
        assert counters["rejoin_latency_mean_s"] == pytest.approx(0.3)
        assert counters["rejoin_latency_max_s"] == pytest.approx(0.3)
