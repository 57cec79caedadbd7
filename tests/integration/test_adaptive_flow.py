"""Tests for resource-aware (adaptive) flow budgets."""

import pytest

from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.flow import FlowController, FlowSettings
from repro.core.system import run_experiment
from repro.errors import ConfigurationError


class TestCongestionScale:
    def test_disabled_by_default(self):
        settings = FlowSettings()
        assert settings.congestion_scale(10_000) == 1.0

    def test_piecewise_linear_mapping(self):
        settings = FlowSettings(adaptive=True, congestion_low=4, congestion_high=32)
        assert settings.congestion_scale(0) == 1.0
        assert settings.congestion_scale(4) == 1.0
        assert settings.congestion_scale(18) == pytest.approx(0.5)
        assert settings.congestion_scale(32) == 0.0
        assert settings.congestion_scale(100) == 0.0

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            FlowSettings(congestion_low=10, congestion_high=5)
        with pytest.raises(ConfigurationError):
            FlowSettings(congestion_low=-1)

    def test_budget_never_drops_below_o1_floor(self):
        settings = FlowSettings(adaptive=True)
        assert settings.budget(16, congestion_scale=0.0) == 1.0
        assert settings.budget(16, congestion_scale=1.0) == pytest.approx(4.0)
        assert settings.budget(16, congestion_scale=0.5) == pytest.approx(2.5)

    def test_controller_applies_observed_depth(self):
        settings = FlowSettings(
            adaptive=True, congestion_low=4, congestion_high=32
        )
        controller = FlowController(16, settings)
        assert controller.budget == pytest.approx(4.0)
        controller.observe_queue_depth(32)
        assert controller.budget == 1.0
        controller.observe_queue_depth(0)
        assert controller.budget == pytest.approx(4.0)


class TestAdaptiveSystem:
    def _config(self, adaptive, rate):
        return SystemConfig(
            num_nodes=6,
            window_size=128,
            policy=PolicyConfig(
                algorithm=Algorithm.DFTT,
                kappa=8.0,
                flow=FlowSettings(
                    adaptive=adaptive, congestion_low=2, congestion_high=16
                ),
            ),
            workload=WorkloadConfig(total_tuples=3000, domain=1024, arrival_rate=rate),
            seed=61,
        )

    def test_adaptive_sheds_messages_under_overload(self):
        static = run_experiment(self._config(adaptive=False, rate=2500.0))
        adaptive = run_experiment(self._config(adaptive=True, rate=2500.0))
        assert adaptive.messages_per_arrival < static.messages_per_arrival

    def test_adaptive_drains_faster_under_overload(self):
        static = run_experiment(self._config(adaptive=False, rate=2500.0))
        adaptive = run_experiment(self._config(adaptive=True, rate=2500.0))
        assert adaptive.duration_seconds < static.duration_seconds

    def test_adaptive_is_neutral_at_light_load(self):
        static = run_experiment(self._config(adaptive=False, rate=150.0))
        adaptive = run_experiment(self._config(adaptive=True, rate=150.0))
        assert adaptive.epsilon == pytest.approx(static.epsilon, abs=0.06)
        assert adaptive.messages_per_arrival == pytest.approx(
            static.messages_per_arrival, rel=0.2
        )
