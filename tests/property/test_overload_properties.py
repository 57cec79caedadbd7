"""Property tests: the degradation ladder is a strict walk on rungs.

Random trigger sequences must satisfy the table contract -- an illegal
trigger raises :class:`~repro.errors.SimulationError` and leaves the
ladder untouched; a legal one moves exactly one rung.  The detector is
checked never to fire an illegal trigger no matter what queue-depth
trajectory it observes, and residency bookkeeping must conserve time.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.overload import (
    DegradationLadder,
    DegradationMode,
    OverloadDetector,
    OverloadSettings,
)
from repro.overload import detector as detector_module
from repro.overload.ladder import _TRANSITIONS, TRIGGERS

RUNG = {
    DegradationMode.NORMAL: 0,
    DegradationMode.THROTTLED: 1,
    DegradationMode.SHEDDING: 2,
}

trigger_sequences = st.lists(st.sampled_from(TRIGGERS), min_size=1, max_size=40)


class TestLadderWalk:
    @settings(max_examples=200, deadline=None)
    @given(triggers=trigger_sequences)
    def test_illegal_triggers_raise_and_leave_state_untouched(self, triggers):
        ladder = DegradationLadder(node_id=0)
        now = 0.0
        for trigger in triggers:
            now += 1.0
            before = (ladder.mode, len(ladder.history))
            if (ladder.mode, trigger) in _TRANSITIONS:
                ladder.apply(trigger, now)
                assert len(ladder.history) == before[1] + 1
            else:
                with pytest.raises(SimulationError):
                    ladder.apply(trigger, now)
                assert (ladder.mode, len(ladder.history)) == before

    @settings(max_examples=200, deadline=None)
    @given(triggers=trigger_sequences)
    def test_legal_transitions_move_exactly_one_rung(self, triggers):
        ladder = DegradationLadder(node_id=0)
        now = 0.0
        for trigger in triggers:
            now += 1.0
            if (ladder.mode, trigger) not in _TRANSITIONS:
                continue
            before = ladder.mode
            after = ladder.apply(trigger, now)
            assert abs(RUNG[after] - RUNG[before]) == 1

    @settings(max_examples=200, deadline=None)
    @given(triggers=trigger_sequences)
    def test_residency_conserves_elapsed_time(self, triggers):
        ladder = DegradationLadder(node_id=0)
        now = 0.0
        for trigger in triggers:
            now += 1.0
            if (ladder.mode, trigger) in _TRANSITIONS:
                ladder.apply(trigger, now)
        final = now + 1.0
        residency = ladder.residency_seconds(final)
        assert sum(residency.values()) == pytest.approx(final)

    def test_transition_table_is_a_path_graph(self):
        """Every mode has at most one step up and one step down."""
        for mode in DegradationMode:
            outgoing = [
                RUNG[target] - RUNG[mode]
                for (source, _), target in _TRANSITIONS.items()
                if source is mode
            ]
            assert all(step in (-1, 1) for step in outgoing)
            assert len(outgoing) == len(set(outgoing))


class TestDetectorNeverBreaksTheLadder:
    @settings(max_examples=200, deadline=None)
    @given(
        depths=st.lists(
            st.integers(min_value=0, max_value=128), min_size=1, max_size=60
        ),
        dwell=st.floats(
            min_value=0.0, max_value=3.0, allow_nan=False, allow_infinity=False
        ),
    )
    def test_observations_only_fire_legal_triggers(self, depths, dwell):
        config = OverloadSettings(
            enabled=True,
            queue_bound=64,
            throttle_watermark=16,
            throttle_clear=4,
            shed_watermark=48,
            shed_clear=24,
        )
        config.validate()
        ladder = DegradationLadder(node_id=0)
        detector = OverloadDetector(config, ladder)
        now = 0.0
        with mock.patch.object(detector_module, "MIN_DWELL_S", dwell):
            for depth in depths:
                now += 0.5
                # Must never raise: the detector walks adjacent rungs only.
                applied = detector.observe(now, depth)
                assert len(applied) <= 2
                if applied:
                    assert applied[-1][1] is ladder.mode
        counters = ladder.counters(now)
        assert counters["transitions"] == float(len(ladder.history))
