"""Per-peer flow control (Section 5.2.2).

Node i forwards an arriving tuple to peer j with probability
``p_ij = w_i * rho_ij`` (Equation 4), where the weighting factor w_i is
chosen so the expected number of transmissions per tuple,
``T_i = sum_j p_ij``, meets a budget inside [1, log N] (Equation 9).

Because each p_ij saturates at 1, solving ``sum_j min(1, w * rho_ij) = T``
for w is a water-filling problem; the sum is continuous, piecewise linear
and non-decreasing in w.  The weight is *defined* as the result of a
bisection (double w from 1, then 64 halvings, each deciding whether the
float sum ``sum(min(1.0, w * v) ...)`` falls short of T), and the solver
returns that weight bit for bit.  It does not replay every step, though:
the exact water level ``w* = (T - k) / (sum of the unsaturated rho)`` (k
saturated peers) comes from one sort and prefix sums, and two weights
just below and above w* are *certified* -- their piecewise-linear
estimate lies farther from T than the float sum can err under any
summation order CPython uses.  Every step outside that narrow band is
then decided by one comparison; only the ~10 steps inside it evaluate the
float sum, as the bisection would.

The controller also implements the worst-case detector: under uniform data
every peer looks equally (dis)similar, the variance of the rho_ij
collapses, and no correlation-driven choice beats any other -- the node
then falls back to round-robin (Section 5.2.2's "heuristics based
method").
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError


BUDGET_FRACTION = 1.0
"""Interpolates the budget T_i between the O(1) bound (0.0) and the
O(log N) bound (1.0): T = 1 + fraction * (log2(N) - 1)."""

UNIFORM_VARIANCE_THRESHOLD = 0.02
"""Var[rho_ij] below this flags the uniform worst case.  Calibrated
against the Section 6 workloads: uniform data yields per-peer similarity
variances below ~1e-2, geographically skewed data well above 5e-2."""

MINIMUM_SIMILARITY = 0.0
"""Floor applied to similarities before weighting (exploration mass)."""


def waterfill_cutoff(scale: float) -> float:
    """Smallest similarity the water-filling solver treats as positive.

    Two regimes make a value numerically zero: vanishingly small relative
    to the best peer (saturating it would dominate the bisection range),
    and below the smallest *normal* float -- ``scale * 1e-12`` underflows
    to 0.0 against denormals, and the weight needed to saturate such a
    value (1/value) overflows, driving the solver to infinity.
    """
    return max(scale * 1e-12, 2.2250738585072014e-308)


def _certified_band(values: List[float], target: float) -> Tuple[float, float]:
    """Weights ``below < w* < above`` that decide a bisection step unseen.

    For every weight ``w <= below`` the float sum
    ``sum(min(1.0, w * v) for v in values)`` is below ``target`` (T); for
    every ``w >= above`` it is not.  The argument, with u = 2**-53 and m
    values:

    * the exact sum ``E(w) = sum_j min(1, w * v_j)`` never decreases in w;
      ``estimate(w) = k + w * (sum of the values below 1/w)``, k the count
      of the others, evaluates it from prefix sums of the sorted values;
    * the float sum lies within (m + 1)u E(w) of E(w) under left-to-right
      summation (CPython 3.10, 3.11) and closer under the
      Neumaier-compensated ``sum`` of 3.12; the estimate lies within
      (m + 2)u E(w), plus u for each value within one rounding of 1/w
      (4u once 1/w is subnormal);
    * so ``estimate(below) < T - margin`` bounds E, hence the float sum,
      below T at every ``w <= below``, and ``estimate(above) > T + margin``
      bounds E(above) far enough above T that the float sum at any
      ``w >= above``, at least (1 - (m + 1)u) E(above), reaches T, with
      ``margin = 8 (m + 2) u (T + 1)`` covering (2m + 3)u T + 4m u and
      underflow twice over.

    ``below`` and ``above`` sit about 1.25 margins of E from the water
    level w* and are kept only if their estimate clears T by a margin; a
    side that does not (a saturation kink inside the band, a level beyond
    float range, a nonsensical T) falls back to 0 or infinity, where every
    step on that side evaluates the float sum itself.
    """
    count = len(values)
    ascending = sorted(values)
    prefix = [0.0, *accumulate(ascending)]
    margin = 8.0 * (count + 2) * 2.0**-53 * (target + 1.0)

    def estimate(weight: float) -> float:
        unsaturated = bisect_left(ascending, 1.0 / weight)
        return (count - unsaturated) + weight * prefix[unsaturated]

    # The water level: saturate the largest values one at a time until the
    # level leaves the largest unsaturated one below 1.
    unsaturated = count
    level = target / prefix[count]
    while unsaturated > 1 and level * ascending[unsaturated - 1] > 1.0:
        unsaturated -= 1
        level = (target - (count - unsaturated)) / prefix[unsaturated]
    if not 0.0 < level < math.inf:
        return 0.0, math.inf
    spread = 1.25 * margin / (target - (count - unsaturated))
    below = level * (1.0 - spread)
    above = level * (1.0 + spread)
    if below <= 0.0 or not estimate(below) < target - margin:
        below = 0.0
    if not estimate(above) > target + margin:
        above = math.inf
    return below, above


@dataclass(frozen=True)
class FlowSettings:
    """Budget knobs for one node's flow controller."""

    budget_override: float = 0.0
    """If positive, use this T_i directly (calibration searches set it);
    otherwise T_i follows ``BUDGET_FRACTION``."""

    adaptive: bool = False
    """Resource-aware budgets (the abstract's "automatic throughput
    handling based on resource availability"): when the node's service
    queue backs up, the budget shrinks from its configured value toward
    the O(1) floor; when the queue drains it expands back.  The bounds
    [1, log N] of Equation 9 always hold."""

    congestion_low: float = 4.0
    """Queue depth at which the budget starts shrinking."""

    congestion_high: float = 32.0
    """Queue depth at (and beyond) which the budget sits at the O(1) floor."""

    def __post_init__(self) -> None:
        if self.budget_override < 0:
            raise ConfigurationError("budget_override must be non-negative")
        if self.congestion_low < 0 or self.congestion_high <= self.congestion_low:
            raise ConfigurationError(
                "congestion thresholds need 0 <= low < high"
            )

    def budget(self, num_nodes: int, congestion_scale: float = 1.0) -> float:
        """The transmission budget T_i for a system of ``num_nodes``.

        ``congestion_scale`` in [0, 1] interpolates the spend *above the
        O(1) floor*: 1 is the configured budget, 0 collapses to one
        transmission per tuple (resource-aware throttling).
        """
        if num_nodes < 2:
            raise ConfigurationError("flow control needs at least 2 nodes")
        if self.budget_override > 0:
            target = min(self.budget_override, float(num_nodes - 1))
        else:
            log_bound = max(1.0, math.log2(num_nodes))
            target = min(
                1.0 + BUDGET_FRACTION * (log_bound - 1.0),
                float(num_nodes - 1),
            )
        scale = min(1.0, max(0.0, congestion_scale))
        if target <= 1.0:
            return target
        return 1.0 + scale * (target - 1.0)

    def congestion_scale(self, queue_depth: float) -> float:
        """Map a node's service-queue depth to the budget scale in [0, 1]."""
        if not self.adaptive:
            return 1.0
        if queue_depth <= self.congestion_low:
            return 1.0
        if queue_depth >= self.congestion_high:
            return 0.0
        return (self.congestion_high - queue_depth) / (
            self.congestion_high - self.congestion_low
        )


class FlowController:
    """Turns per-peer similarities into per-peer forwarding probabilities."""

    def __init__(self, num_nodes: int, settings: FlowSettings = FlowSettings()) -> None:
        if num_nodes < 2:
            raise ConfigurationError("flow control needs at least 2 nodes")
        self.num_nodes = num_nodes
        self.settings = settings
        self.last_weight = 0.0
        self.uniform_detections = 0
        self._congestion_scale = 1.0
        self.budget = settings.budget(num_nodes)
        """``settings.budget(num_nodes, congestion_scale)``, kept: every
        decision reads it, and it changes only with the scale."""
        self.telemetry = None
        """Optional :class:`repro.telemetry.TelemetryHub` (wired by the
        owning policy's ``attach_telemetry``)."""
        self.telemetry_node = None
        self._uniform_counter = None

    @property
    def congestion_scale(self) -> float:
        return self._congestion_scale

    @congestion_scale.setter
    def congestion_scale(self, scale: float) -> None:
        """Set the budget scale, and the kept budget when the scale moved."""
        if scale != self._congestion_scale:
            self._congestion_scale = scale
            self.budget = self.settings.budget(self.num_nodes, scale)

    def observe_queue_depth(self, queue_depth: float) -> None:
        """Update the resource-aware budget scale from the service queue."""
        self.congestion_scale = self.settings.congestion_scale(queue_depth)

    def target(self, peers: int) -> float:
        """The expected transmissions T a fill over ``peers`` peers spends:
        the budget, capped at one per peer."""
        return min(self.budget, float(peers))

    def probabilities(
        self, similarities: Mapping[int, float], target: Optional[float] = None
    ) -> Dict[int, float]:
        """Water-fill the budget over peers proportionally to similarity.

        ``target`` is :meth:`target` by default; a caller that solves a
        fill later than it read the budget passes the value it read.
        Degenerate similarities (all ~zero) spread the budget uniformly --
        the tuple must still reach *somewhere* for any result to exist.
        """
        if not similarities:
            return {}
        floored = {
            peer: max(float(value), MINIMUM_SIMILARITY)
            for peer, value in similarities.items()
        }
        if target is None:
            target = self.target(len(floored))
        scale = max(floored.values())
        if scale <= 0.0:
            uniform = target / len(floored)
            self.last_weight = 0.0
            return {peer: min(1.0, uniform) for peer in floored}
        # Similarities vanishingly small relative to the best peer are
        # numerically zero for water-filling (saturating them would need a
        # weight beyond float range).
        cutoff = waterfill_cutoff(scale)
        floored = {
            peer: (value if value >= cutoff else 0.0)
            for peer, value in floored.items()
        }
        if all(value == 0.0 for value in floored.values()):
            # Every peer was below the cutoff (all-denormal input): the
            # degenerate uniform spread, same as scale <= 0.
            uniform = target / len(floored)
            self.last_weight = 0.0
            return {peer: min(1.0, uniform) for peer in floored}
        weight = self._solve_weight(floored, target)
        self.last_weight = weight
        if math.isinf(weight):
            # Fewer positive-similarity peers than the budget: saturate them
            # all (inf * 0.0 would otherwise poison the zero-similarity
            # peers with NaN).
            return {peer: (1.0 if value > 0 else 0.0) for peer, value in floored.items()}
        return {peer: min(1.0, weight * value) for peer, value in floored.items()}

    @staticmethod
    def _solve_weight(similarities: Mapping[int, float], target: float) -> float:
        """The weight of the bisection on sum_j min(1, w * rho_j) = target.

        Same steps, same result bits: only how each step is decided changed
        (see :func:`_certified_band`).  Once ``mid`` equals a bound, that
        bound's decision is already known, so later halvings cannot move
        either bound and the loop stops.
        """
        values = [v for v in similarities.values() if v > 0]
        achieved = float(len(values))  # w -> infinity limit
        if achieved <= target:
            return math.inf
        # A step falls short of target for certain at or below ``below``,
        # reaches it for certain at or above ``above``, and between them
        # evaluates the float sum as the bisection always did.
        below, above = _certified_band(values, target)
        low, high = 0.0, 1.0
        while high <= below or (
            high < above and sum(min(1.0, high * v) for v in values) < target
        ):
            high *= 2.0
            if math.isinf(high):  # defensive: cannot happen past the
                return high  # achieved-limit check above
        for _ in range(64):
            mid = (low + high) / 2.0
            if mid == low or mid == high:
                break
            if mid <= below or (
                mid < above and sum(min(1.0, mid * v) for v in values) < target
            ):
                low = mid
            else:
                high = mid
        return high

    def checkpoint_state(self) -> Dict[str, float]:
        """Snapshot the mutable controller state for repro.recovery."""
        return {
            "last_weight": self.last_weight,
            "uniform_detections": self.uniform_detections,
            "congestion_scale": self.congestion_scale,
        }

    def restore_state(self, state: Mapping[str, float]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self.last_weight = float(state["last_weight"])
        self.uniform_detections = int(state["uniform_detections"])
        self.congestion_scale = float(state["congestion_scale"])

    def is_uniform_worst_case(self, similarities: Mapping[int, float]) -> bool:
        """Detect Section 5.2.2's worst case: all peers equally similar.

        A very small variance in the per-peer similarities means the
        correlation signal carries no routing information; the caller
        should switch to a round-robin style fallback.
        """
        values = list(similarities.values())
        if len(values) < 2:
            return False
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        uniform = variance < UNIFORM_VARIANCE_THRESHOLD
        if uniform:
            self.uniform_detections += 1
            if self.telemetry is not None:
                # Detections fire per forwarding decision; a counter keeps
                # the cost at one increment instead of one event per tuple.
                if self._uniform_counter is None:
                    self._uniform_counter = self.telemetry.registry.counter(
                        "repro_flow_uniform_detections_total",
                        node=self.telemetry_node,
                    )
                self._uniform_counter.inc()
        return uniform
