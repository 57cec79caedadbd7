"""Property-based tests for flow control and the error metric."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.flow import FlowController, FlowSettings, waterfill_cutoff
from repro.metrics.error import epsilon_error

similarity_maps = st.dictionaries(
    keys=st.integers(min_value=1, max_value=40),
    values=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=30,
)


@given(similarity_maps, st.floats(min_value=0.3, max_value=10.0))
@settings(max_examples=80)
def test_probabilities_are_valid_and_meet_budget(similarities, budget)  :
    controller = FlowController(
        len(similarities) + 1, FlowSettings(budget_override=budget)
    )
    probabilities = controller.probabilities(similarities)
    assert set(probabilities) == set(similarities)
    assert all(0.0 <= p <= 1.0 for p in probabilities.values())
    achieved = sum(probabilities.values())
    scale = max(similarities.values())
    # Mirror the controller's numeric-zero cutoff: peers vanishingly small
    # relative to the best (or denormal) would need an unrepresentable weight.
    positive = sum(1 for v in similarities.values() if v >= waterfill_cutoff(scale))
    if positive == 0:
        # Degenerate case: the budget spreads uniformly over all peers.
        target = min(controller.budget, float(len(similarities)))
        assert achieved == pytest.approx(target, abs=1e-4)
    else:
        # The budget is met exactly unless saturation caps it at the
        # number of positive-similarity peers.
        target = min(controller.budget, float(positive))
        assert achieved == pytest.approx(target, abs=1e-4)


@given(similarity_maps, st.floats(min_value=0.3, max_value=5.0))
@settings(max_examples=80)
def test_probabilities_preserve_similarity_ordering(similarities, budget):
    controller = FlowController(
        len(similarities) + 1, FlowSettings(budget_override=budget)
    )
    probabilities = controller.probabilities(similarities)
    peers = sorted(similarities, key=similarities.get)
    for a, b in zip(peers, peers[1:]):
        assert probabilities[a] <= probabilities[b] + 1e-9


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_epsilon_always_in_unit_interval(truth, reported):
    value = epsilon_error(truth, reported)
    assert 0.0 <= value <= 1.0


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_epsilon_monotone_in_reported(truth, reported):
    assume(reported < truth)
    assert epsilon_error(truth, reported) > epsilon_error(truth, reported + 1)
