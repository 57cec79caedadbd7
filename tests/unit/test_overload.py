"""Unit tests for the overload-protection building blocks.

Settings validation, the degradation ladder's transition table and
residency bookkeeping, and the watermark/hysteresis detector -- all pure
and clock-free, exercised in isolation exactly as the node drives them.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.overload import (
    DegradationLadder,
    DegradationMode,
    OverloadDetector,
    OverloadSettings,
)
from repro.overload import detector as detector_module
from repro.overload.ladder import _TRANSITIONS, TRIGGERS


def enabled_settings(**overrides):
    base = dict(
        enabled=True,
        queue_bound=64,
        throttle_watermark=16,
        throttle_clear=4,
        shed_watermark=48,
        shed_clear=24,
    )
    base.update(overrides)
    return OverloadSettings(**base)


class TestSettings:
    def test_defaults_are_disabled_and_valid(self):
        settings = OverloadSettings()
        assert not settings.enabled
        settings.validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"queue_bound": 0},
            {"throttle_clear": -1},
            {"throttle_clear": 16},  # no hysteresis gap
            {"shed_clear": 48},  # no hysteresis gap
            {"throttle_watermark": 50},  # above shed watermark
            {"shed_watermark": 80},  # above the queue bound
            {"link_backlog_bound_s": -1.0},
        ],
    )
    def test_validate_rejects_broken_ladders(self, overrides):
        with pytest.raises(ConfigurationError):
            enabled_settings(**overrides).validate()

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 8, 64, 1000])
    def test_for_queue_bound_is_valid_for_any_bound(self, bound):
        settings = OverloadSettings.for_queue_bound(bound)
        assert settings.enabled
        assert settings.queue_bound == bound
        assert settings.shed_watermark <= bound
        assert settings.throttle_clear < settings.throttle_watermark
        assert settings.shed_clear < settings.shed_watermark
        assert settings.throttle_watermark <= settings.shed_watermark

    def test_for_queue_bound_threads_link_bound(self):
        settings = OverloadSettings.for_queue_bound(16, link_backlog_bound_s=2.5)
        assert settings.link_backlog_bound_s == pytest.approx(2.5)


class TestLadder:
    def test_full_walk_up_and_down(self):
        ladder = DegradationLadder(node_id=2)
        assert ladder.mode is DegradationMode.NORMAL
        assert not ladder.is_degraded
        assert ladder.apply("throttle", 1.0) is DegradationMode.THROTTLED
        assert ladder.is_degraded
        assert ladder.apply("shed", 2.0) is DegradationMode.SHEDDING
        assert ladder.is_degraded
        assert ladder.apply("relax", 5.0) is DegradationMode.THROTTLED
        assert ladder.apply("recover", 6.0) is DegradationMode.NORMAL
        assert not ladder.is_degraded
        assert [entry[1] for entry in ladder.history] == [
            "throttle",
            "shed",
            "relax",
            "recover",
        ]

    def test_every_trigger_is_legal_from_exactly_one_mode(self):
        for trigger in TRIGGERS:
            sources = [mode for (mode, t) in _TRANSITIONS if t == trigger]
            assert len(sources) == 1

    def test_out_of_order_triggers_raise(self):
        ladder = DegradationLadder(node_id=0)
        # NORMAL accepts only "throttle" -- the ladder never skips a rung.
        for trigger in ("shed", "relax", "recover"):
            assert (ladder.mode, trigger) not in _TRANSITIONS
            with pytest.raises(SimulationError):
                ladder.apply(trigger, 1.0)
        ladder.apply("throttle", 1.0)
        with pytest.raises(SimulationError):
            ladder.apply("throttle", 2.0)

    def test_residency_accounts_open_interval_without_mutating(self):
        ladder = DegradationLadder(node_id=0)
        ladder.apply("throttle", 2.0)
        ladder.apply("shed", 5.0)
        first = ladder.residency_seconds(7.0)
        assert first["normal"] == pytest.approx(2.0)
        assert first["throttled"] == pytest.approx(3.0)
        assert first["shedding"] == pytest.approx(2.0)
        # A second call later must see the same closed intervals.
        second = ladder.residency_seconds(9.0)
        assert second["throttled"] == pytest.approx(3.0)
        assert second["shedding"] == pytest.approx(4.0)

    def test_counters_shape(self):
        ladder = DegradationLadder(node_id=0)
        ladder.apply("throttle", 1.0)
        counters = ladder.counters(3.0)
        assert counters == {
            "transitions": 1.0,
            "throttled_seconds": pytest.approx(2.0),
            "shedding_seconds": 0.0,
        }


class TestDetector:
    @pytest.fixture(autouse=True)
    def _monkeypatch(self, monkeypatch):
        self._patch = monkeypatch

    def make(self, min_dwell_s=None):
        if min_dwell_s is not None:
            self._patch.setattr(detector_module, "MIN_DWELL_S", min_dwell_s)
        ladder = DegradationLadder(node_id=1)
        return OverloadDetector(enabled_settings(), ladder), ladder

    def test_steady_state_applies_nothing(self):
        detector, ladder = self.make()
        assert detector.observe(1.0, 0) == []
        assert detector.observe(2.0, 15) == []
        assert ladder.mode is DegradationMode.NORMAL

    def test_escalates_one_rung_at_throttle_watermark(self):
        detector, ladder = self.make()
        applied = detector.observe(1.0, 16)
        assert [trigger for trigger, _ in applied] == ["throttle"]
        assert ladder.mode is DegradationMode.THROTTLED

    def test_escalates_two_rungs_in_one_observation(self):
        detector, ladder = self.make()
        applied = detector.observe(1.0, 48)
        assert [trigger for trigger, _ in applied] == ["throttle", "shed"]
        assert ladder.mode is DegradationMode.SHEDDING

    def test_deescalation_waits_for_dwell(self):
        detector, ladder = self.make(min_dwell_s=1.0)
        detector.observe(1.0, 16)
        # Queue drained, but the dwell hasn't elapsed yet.
        assert detector.observe(1.5, 0) == []
        assert ladder.mode is DegradationMode.THROTTLED
        applied = detector.observe(2.5, 0)
        assert [trigger for trigger, _ in applied] == ["recover"]
        assert ladder.mode is DegradationMode.NORMAL

    def test_deescalation_waits_for_clear_watermark(self):
        detector, ladder = self.make(min_dwell_s=0.0)
        detector.observe(1.0, 16)
        # Below the entry watermark but above the clear: hold the mode.
        assert detector.observe(2.0, 5) == []
        assert ladder.mode is DegradationMode.THROTTLED
        applied = detector.observe(3.0, 4)
        assert [trigger for trigger, _ in applied] == ["recover"]

    def test_deescalates_at_most_one_rung_per_observation(self):
        detector, ladder = self.make(min_dwell_s=0.0)
        detector.observe(1.0, 48)
        assert ladder.mode is DegradationMode.SHEDDING
        applied = detector.observe(2.0, 0)
        assert [trigger for trigger, _ in applied] == ["relax"]
        assert ladder.mode is DegradationMode.THROTTLED
        applied = detector.observe(3.0, 0)
        assert [trigger for trigger, _ in applied] == ["recover"]
        assert ladder.mode is DegradationMode.NORMAL

    def test_dwell_resets_on_each_transition(self):
        detector, ladder = self.make(min_dwell_s=1.0)
        detector.observe(1.0, 48)
        # SHEDDING entered at t=1; relax is legal from t=2.
        assert detector.observe(2.0, 0) != []
        assert ladder.mode is DegradationMode.THROTTLED
        # THROTTLED entered at t=2; recover must wait until t=3.
        assert detector.observe(2.5, 0) == []
        assert detector.observe(3.0, 0) != []
        assert ladder.mode is DegradationMode.NORMAL

    def test_reescalation_is_immediate(self):
        detector, ladder = self.make(min_dwell_s=5.0)
        detector.observe(1.0, 16)
        # Escalation ignores dwell entirely -- only stepping down waits.
        applied = detector.observe(1.1, 48)
        assert [trigger for trigger, _ in applied] == ["shed"]
        assert ladder.mode is DegradationMode.SHEDDING


class TestSettingsImmutability:
    def test_settings_are_frozen(self):
        settings = OverloadSettings()
        with pytest.raises(dataclasses.FrozenInstanceError):
            settings.enabled = True
