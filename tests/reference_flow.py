"""The bisection water-level solve and the percentile tolerance, kept as
the tests' oracle.

``FlowController._solve_weight`` used to replay every bisection step as a
fresh float sum, and ``DfttPolicy.match_tolerance`` took its tolerance
from ``np.percentile``.  The bodies below are those moved here verbatim,
so the certified solve and the one-partition order statistic under
``src/`` can be held to them bit for bit.
"""

import math
from typing import Mapping

import numpy as np

from repro.core.policies.dftt import TOLERANCE_PERCENTILE


def reference_solve_weight(similarities: Mapping[int, float], target: float) -> float:
    """Bisection on sum_j min(1, w * rho_j) = target."""
    values = [v for v in similarities.values() if v > 0]
    achieved = float(len(values))  # w -> infinity limit
    if achieved <= target:
        return math.inf
    low, high = 0.0, 1.0
    while sum(min(1.0, high * v) for v in values) < target:
        high *= 2.0
        if math.isinf(high):  # defensive: cannot happen past the
            return high  # achieved-limit check above
    for _ in range(64):
        mid = (low + high) / 2.0
        if sum(min(1.0, mid * v) for v in values) < target:
            low = mid
        else:
            high = mid
    return high


def reference_error_percentile(errors: np.ndarray) -> float:
    """The order statistic ``DfttPolicy.match_tolerance`` floors at 0.5."""
    return float(np.percentile(errors, TOLERANCE_PERCENTILE))
