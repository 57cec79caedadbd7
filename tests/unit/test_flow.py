"""Unit tests for the flow controller."""

import builtins
import math
import random

import pytest

from repro.core import flow
from repro.core.flow import FlowController, FlowSettings
from repro.errors import ConfigurationError


class TestFlowSettings:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlowSettings(budget_override=-1)

    def test_budget_interpolates_between_1_and_logn(self, monkeypatch):
        n = 16
        assert FlowSettings().budget(n) == pytest.approx(4.0)
        monkeypatch.setattr(flow, "BUDGET_FRACTION", 0.0)
        assert FlowSettings().budget(n) == 1.0
        monkeypatch.setattr(flow, "BUDGET_FRACTION", 0.5)
        assert FlowSettings().budget(n) == pytest.approx(2.5)

    def test_budget_override_wins(self):
        assert FlowSettings(budget_override=3.3).budget(16) == pytest.approx(3.3)

    def test_budget_capped_at_n_minus_1(self):
        assert FlowSettings(budget_override=100).budget(4) == 3.0

    def test_budget_requires_two_nodes(self):
        with pytest.raises(ConfigurationError):
            FlowSettings().budget(1)


class TestFlowController:
    def test_probabilities_meet_budget(self):
        controller = FlowController(9, FlowSettings(budget_override=2.0))
        similarities = {j: 0.1 + 0.1 * j for j in range(8)}
        probabilities = controller.probabilities(similarities)
        assert sum(probabilities.values()) == pytest.approx(2.0, abs=1e-6)
        assert all(0.0 <= p <= 1.0 for p in probabilities.values())

    def test_probabilities_proportional_below_cap(self):
        controller = FlowController(5, FlowSettings(budget_override=1.0))
        probabilities = controller.probabilities({1: 0.1, 2: 0.2, 3: 0.4})
        assert probabilities[2] == pytest.approx(2 * probabilities[1], rel=1e-6)
        assert probabilities[3] == pytest.approx(4 * probabilities[1], rel=1e-6)

    def test_saturation_waterfills(self):
        controller = FlowController(4, FlowSettings(budget_override=2.5))
        probabilities = controller.probabilities({1: 1.0, 2: 0.01, 3: 0.01})
        assert probabilities[1] == 1.0
        assert probabilities[2] == pytest.approx(0.75, abs=1e-6)
        assert sum(probabilities.values()) == pytest.approx(2.5, abs=1e-6)

    def test_all_zero_similarities_spread_uniformly(self):
        controller = FlowController(5, FlowSettings(budget_override=2.0))
        probabilities = controller.probabilities({j: 0.0 for j in range(4)})
        assert all(p == pytest.approx(0.5) for p in probabilities.values())

    def test_budget_larger_than_peers_saturates_everyone(self):
        controller = FlowController(3, FlowSettings(budget_override=10.0))
        probabilities = controller.probabilities({1: 0.5, 2: 0.1})
        assert probabilities == {1: 1.0, 2: 1.0}

    def test_empty_similarities(self):
        controller = FlowController(3)
        assert controller.probabilities({}) == {}

    def test_minimum_similarity_floor(self, monkeypatch):
        monkeypatch.setattr(flow, "MINIMUM_SIMILARITY", 0.2)
        controller = FlowController(4, FlowSettings(budget_override=1.5))
        probabilities = controller.probabilities({1: 0.0, 2: 0.0, 3: 1.0})
        assert probabilities[1] > 0.0

    def test_worst_case_detection_on_flat_similarities(self):
        controller = FlowController(5)
        flat = {j: 0.42 for j in range(4)}
        assert controller.is_uniform_worst_case(flat)
        assert controller.uniform_detections == 1

    def test_no_detection_on_varied_similarities(self):
        controller = FlowController(5)
        varied = {0: 0.9, 1: 0.1, 2: 0.5, 3: 0.2}
        assert not controller.is_uniform_worst_case(varied)

    def test_single_peer_never_flags_worst_case(self):
        controller = FlowController(2)
        assert not controller.is_uniform_worst_case({1: 0.3})

    def test_needs_two_nodes(self):
        with pytest.raises(ConfigurationError):
            FlowController(1)

    def test_budget_property(self):
        controller = FlowController(8, FlowSettings())
        assert controller.budget == pytest.approx(math.log2(8))

    @pytest.mark.parametrize(
        "settings",
        [
            FlowSettings(),
            FlowSettings(adaptive=True),
            FlowSettings(adaptive=True, budget_override=2.5),
        ],
    )
    def test_kept_budget_is_the_budget_of_the_scale(self, settings):
        """The controller keeps its budget as a value; after every queue
        depth, reset and restore it is the settings' budget at the
        current scale, to the bit."""
        controller = FlowController(20, settings)

        def held():
            expected = settings.budget(20, controller.congestion_scale)
            return controller.budget == expected

        assert held()
        for depth in (0, 5, 5, 12.5, 40, 31.9, 3, 0, 18, 64, 2):
            controller.observe_queue_depth(depth)
            assert held()
        controller.observe_queue_depth(20)
        state = controller.checkpoint_state()
        controller.congestion_scale = 1.0  # a crash's soft-state wipe
        assert held() and controller.congestion_scale == 1.0
        controller.restore_state(state)
        assert held() and controller.congestion_scale == state["congestion_scale"]
        restarted = FlowController(20, settings)
        restarted.restore_state(state)
        assert restarted.budget == controller.budget

    def test_few_float_sums_per_solve(self, monkeypatch):
        """A gate in counts: a bisection step is decided by the certified
        band and evaluates the float sum only inside it.  Replaying every
        step (one doubling check plus 64 halvings: >= 65 sums per solve)
        trips it on any machine."""
        sums = []

        def counting(*args, **kwargs):
            sums.append(1)
            return builtins.sum(*args, **kwargs)

        monkeypatch.setattr(flow, "sum", counting, raising=False)
        rng = random.Random(20)
        vectors = [{peer: rng.random() for peer in range(19)} for _ in range(1000)]
        for similarities in vectors:
            FlowController._solve_weight(similarities, math.log2(20))
        assert len(sums) / len(vectors) <= 12
