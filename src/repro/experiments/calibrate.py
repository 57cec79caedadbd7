"""Operating-point calibration: fix epsilon, measure everything else.

Figures 9 and 11 compare the algorithms "with fixed error rate
eps = 15%": each algorithm's flow budget is tuned until it just meets the
error target, and messages/throughput are reported at that point.  The
budget -> error mapping is monotone (more transmissions can only find
more results), so a bisection over ``budget_override`` converges quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.config import SystemConfig
from repro.core.results import RunResult
from repro.errors import CalibrationError
from repro.parallel import Cell, run_cells

ConfigFactory = Callable[[float], SystemConfig]
"""Maps a budget T to the run configuration using it."""


@dataclass
class CalibrationResult:
    """Outcome of a budget search."""

    budget: float
    result: RunResult
    probes: int
    achieved_epsilon: float
    target_epsilon: float

    @property
    def within_tolerance(self) -> bool:
        return abs(self.achieved_epsilon - self.target_epsilon) <= 0.05


def budget_search(
    make_config: ConfigFactory,
    target_epsilon: float = 0.15,
    budget_range: Tuple[float, float] = (0.25, 0.0),
    max_probes: int = 7,
    tolerance: float = 0.02,
) -> Cell[CalibrationResult]:
    """Bisect the flow budget until the run's epsilon meets the target.

    A :data:`~repro.parallel.Cell`: it yields each probe's configuration
    and receives that probe's result, so a sweep can run the probes of
    many searches side by side (:func:`repro.parallel.run_cells`).  The
    search itself stays sequential -- each probe's budget depends on the
    last epsilon.

    ``budget_range`` is (low, high); a high of 0 means "N - 1" (read from
    the first probe's configuration).  Returns the probe whose epsilon is
    closest to the target.  Raises :class:`CalibrationError` only for
    invalid inputs -- an unreachable target returns the best-effort
    endpoint, mirroring the paper's best-effort stance.
    """
    if not 0.0 <= target_epsilon < 1.0:
        raise CalibrationError("target epsilon must lie in [0, 1)")
    if max_probes < 2:
        raise CalibrationError("need at least 2 probes")

    low, high = budget_range
    first_config = make_config(max(low, 0.25))
    if high <= 0:
        high = float(first_config.num_nodes - 1)
    if low <= 0 or high <= low:
        raise CalibrationError("invalid budget range (%g, %g)" % (low, high))

    best: Optional[CalibrationResult] = None
    probes = 0

    def probe(budget: float) -> Cell[float]:
        nonlocal best, probes
        result = yield make_config(budget)
        probes += 1
        epsilon = result.epsilon
        candidate = CalibrationResult(
            budget=budget,
            result=result,
            probes=probes,
            achieved_epsilon=epsilon,
            target_epsilon=target_epsilon,
        )
        if best is None or abs(epsilon - target_epsilon) < abs(
            best.achieved_epsilon - target_epsilon
        ):
            best = candidate
        return epsilon

    # Endpoint probes bound the search; epsilon decreases with budget.
    eps_high = yield from probe(high)
    if eps_high > target_epsilon:
        # Even the full budget misses the target: report that endpoint.
        best.probes = probes
        return best
    eps_low = yield from probe(low)
    if eps_low <= target_epsilon:
        best.probes = probes
        return best

    lo, hi = low, high
    while probes < max_probes:
        mid = (lo + hi) / 2.0
        epsilon = yield from probe(mid)
        if abs(epsilon - target_epsilon) <= tolerance:
            break
        if epsilon > target_epsilon:
            lo = mid
        else:
            hi = mid
    best.probes = probes
    return best


def calibrate_budget(
    make_config: ConfigFactory,
    target_epsilon: float = 0.15,
    budget_range: Tuple[float, float] = (0.25, 0.0),
    max_probes: int = 7,
    tolerance: float = 0.02,
) -> CalibrationResult:
    """Run one :func:`budget_search` serially, uncached."""
    search = budget_search(
        make_config, target_epsilon, budget_range, max_probes, tolerance
    )
    return run_cells([search])[0]
