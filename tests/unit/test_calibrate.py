"""Unit tests for the epsilon-target calibration search."""

import pytest

from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.flow import FlowSettings
from repro.experiments.calibrate import calibrate_budget
from repro.errors import CalibrationError


def factory(budget):
    return SystemConfig(
        num_nodes=4,
        window_size=96,
        policy=PolicyConfig(
            algorithm=Algorithm.ROUND_ROBIN,
            kappa=4.0,
            flow=FlowSettings(budget_override=budget),
        ),
        workload=WorkloadConfig(total_tuples=1200, domain=512, arrival_rate=150.0),
        seed=21,
    )


def test_calibration_converges_near_target():
    calibration = calibrate_budget(factory, target_epsilon=0.25, max_probes=6)
    assert calibration.probes <= 6
    assert abs(calibration.achieved_epsilon - 0.25) < 0.12
    assert 0.25 <= calibration.budget <= 3.0


def test_unreachable_target_returns_endpoint():
    # Target 0 is (practically) unreachable for a filtered policy.
    calibration = calibrate_budget(factory, target_epsilon=0.0, max_probes=3)
    assert calibration.budget == 3.0  # the high endpoint (N - 1)
    assert calibration.achieved_epsilon >= 0.0


def test_trivial_target_uses_low_endpoint():
    calibration = calibrate_budget(factory, target_epsilon=0.95, max_probes=3)
    assert calibration.budget == pytest.approx(0.25)


def test_invalid_inputs():
    with pytest.raises(CalibrationError):
        calibrate_budget(factory, target_epsilon=1.5)
    with pytest.raises(CalibrationError):
        calibrate_budget(factory, target_epsilon=0.15, max_probes=1)
    with pytest.raises(CalibrationError):
        calibrate_budget(factory, budget_range=(2.0, 1.0))


def test_within_tolerance_property():
    calibration = calibrate_budget(factory, target_epsilon=0.25, max_probes=7)
    assert calibration.target_epsilon == 0.25
    assert calibration.within_tolerance == (
        abs(calibration.achieved_epsilon - 0.25) <= 0.05
    )


@pytest.mark.parametrize(
    "target, max_probes, budgets, chosen",
    [
        (0.25, 6, [0.25, 3.0, 0.25, 1.625, 0.9375, 1.28125, 1.109375], 1.109375),
        (0.0, 3, [0.25, 3.0, 0.25, 1.625], 3.0),
        (0.95, 3, [0.25, 3.0, 0.25], 0.25),
        (0.15, 5, [0.25, 3.0, 0.25, 1.625], 1.625),
    ],
    ids=["bisects", "met-at-full-budget", "met-at-low-budget", "within-tolerance"],
)
def test_probe_sequence_is_pinned(target, max_probes, budgets, chosen):
    """The factory sees the range probe (the mesh size read off a config
    at the low end), then high, low and the bisection midpoints."""
    seen = []

    def recording(budget):
        seen.append(budget)
        return factory(budget)

    calibration = calibrate_budget(
        recording, target_epsilon=target, max_probes=max_probes
    )
    assert seen == budgets
    assert calibration.budget == chosen
