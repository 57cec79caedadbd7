"""The certified water-level solve returns the bisection's weight bit for bit.

``FlowController._solve_weight`` decides most bisection steps from a
closed-form water level instead of a fresh float sum, and
``DfttPolicy.match_tolerance`` reads its percentile from one partition.
Both are admissible only because they change *nothing* about the
numbers: every assertion here is ``==`` against ``tests/reference_flow.py``
(the replay-every-step code), never ``approx``.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.flow import FlowController, FlowSettings
from repro.core.policies.dftt import error_percentile
from tests.reference_flow import reference_error_percentile, reference_solve_weight

SMALLEST_NORMAL = 2.2250738585072014e-308

uniform = st.floats(min_value=0.0, max_value=1.0)
magnitudes = st.floats(min_value=1e-300, max_value=1e3)
subnormals = st.floats(min_value=5e-324, max_value=SMALLEST_NORMAL, exclude_max=True)
powers_of_two = st.integers(-12, 3).map(lambda exponent: 2.0**exponent)


@st.composite
def value_lists(draw):
    """1-64 similarities of one shape, a few zeros sprinkled in."""
    size = draw(st.integers(1, 64))
    shape = draw(
        st.sampled_from(["uniform", "duplicates", "near-equal", "powers", "magnitudes"])
    )
    if shape == "uniform":
        values = draw(st.lists(uniform, min_size=size, max_size=size))
    elif shape == "duplicates":
        pool = draw(st.lists(uniform, min_size=1, max_size=3))
        values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    elif shape == "near-equal":
        base = draw(st.floats(min_value=1e-3, max_value=1.0))
        steps = st.integers(-10, 10).map(lambda step: base * (1.0 + step * 1e-15))
        values = draw(st.lists(steps, min_size=size, max_size=size))
    elif shape == "powers":
        # w * v hits exactly 1.0 at a bisection mid.
        values = draw(st.lists(powers_of_two, min_size=size, max_size=size))
    else:
        tiny = st.one_of(subnormals, st.floats(min_value=SMALLEST_NORMAL, max_value=1e-290))
        values = draw(
            st.lists(st.one_of(magnitudes, tiny), min_size=size, max_size=size)
        )
    zeros = draw(st.lists(st.integers(0, size - 1), max_size=3))
    for index in zeros:
        values[index] = 0.0
    return values


@st.composite
def targets(draw, count):
    """T as the controller computes it, and the edges around a count."""
    source = draw(st.sampled_from(["budget", "override", "integer", "count-ulp"]))
    nodes = draw(st.integers(2, 64))
    scale = draw(st.floats(min_value=0.0, max_value=1.0))
    if source == "budget":
        return FlowSettings().budget(nodes, scale)
    if source == "override":
        override = draw(st.floats(min_value=0.05, max_value=64.0))
        return FlowSettings(budget_override=override).budget(nodes, scale)
    if source == "integer":
        return draw(st.integers(1, 64))
    return math.nextafter(float(max(count, 1)), 0.0)


def same_float(actual, expected):
    return actual == expected and math.copysign(1.0, actual) == math.copysign(
        1.0, expected
    )


@st.composite
def solve_cases(draw):
    values = draw(value_lists())
    positive = sum(1 for value in values if value > 0)
    return values, draw(targets(positive))


@settings(max_examples=600, deadline=None)
@given(case=solve_cases())
@example(case=([0.5, 0.25, 0.25, 0.125], 2))
@example(case=([1.0, 1.0, 1.0, 1e-20], 3))
@example(case=([5e-324, 5e-324, 5e-324], 1.5))
@example(case=([1e-300, 1e3], math.nextafter(2.0, 0.0)))
def test_solve_weight_is_the_bisection(case):
    values, target = case
    similarities = dict(enumerate(values))
    assert same_float(
        FlowController._solve_weight(similarities, target),
        reference_solve_weight(similarities, target),
    )


@settings(max_examples=300, deadline=None)
@given(
    values=value_lists(),
    nodes=st.integers(2, 64),
    override=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=64.0)),
    scale=st.floats(min_value=0.0, max_value=1.0),
)
def test_probabilities_and_last_weight_are_the_bisections(values, nodes, override, scale):
    """Through the controller: floors, the numeric-zero cutoff, the budget."""
    similarities = dict(enumerate(values))

    def solve():
        flow = FlowSettings(budget_override=override)
        controller = FlowController(nodes, flow)
        controller.congestion_scale = scale
        assert controller.budget == flow.budget(nodes, scale)
        return controller.probabilities(similarities), controller.last_weight

    actual, weight = solve()
    with mock.patch.object(
        FlowController, "_solve_weight", staticmethod(reference_solve_weight)
    ):
        expected, expected_weight = solve()
    assert actual == expected
    assert same_float(weight, expected_weight)


errors = st.one_of(
    st.floats(min_value=0.0, max_value=1e6),
    st.just(0.0),
    subnormals,
    st.sampled_from([0.5, 1.0, 2.5]),
)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(errors, min_size=1, max_size=300))
def test_error_percentile_is_np_percentile(values):
    array = np.asarray(values, dtype=np.float64)
    assert same_float(error_percentile(array), reference_error_percentile(array))
