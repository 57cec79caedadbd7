"""Recomputation control vector.

Section 4 sets, after Winograd & Nawab [28], a control vector "such that the
arithmetic complexity is reduced by a factor of 10 with a probability for
completion of the DFT approximation greater than 0.95".  The essence of
that trade-off, as the paper uses it, is a *cadence*: incremental updates
are cheap but drift, so the full transform is recomputed every so often
(Section 5.2.1: "at regular intervals, as specified by the control vector,
the DFT is completely recalculated").

:class:`ControlVector` captures both knobs:

* ``reduction_factor`` -- the targeted arithmetic saving of the incremental
  path relative to recomputing from scratch each tuple;
* ``completion_probability`` -- the required probability that, between
  recomputations, the approximate coefficients stay within ``drift_bound``
  of their exact values.

Per-update drift is modeled as a zero-mean random perturbation of magnitude
at most ``unit_roundoff`` per coefficient (the O(1e-16) figure of [4]);
after m updates the accumulated drift is at most ``m * unit_roundoff`` in
the worst case, so the deterministic-safe interval is
``drift_bound / unit_roundoff``.  The interval actually used is the smaller
of that bound and the interval implied by the reduction factor, which keeps
the amortized cost of recomputation at ``1/reduction_factor`` of the
per-tuple full-DFT cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ControlVector:
    """Recomputation policy for an incremental DFT."""

    recompute_interval: int
    reduction_factor: float = 10.0
    completion_probability: float = 0.95
    drift_bound: float = 1e-9
    unit_roundoff: float = 1e-16

    def __post_init__(self) -> None:
        if self.recompute_interval < 1:
            raise ConfigurationError("recompute_interval must be >= 1")
        if self.reduction_factor < 1:
            raise ConfigurationError("reduction_factor must be >= 1")
        if not 0 < self.completion_probability < 1:
            raise ConfigurationError("completion_probability must lie in (0, 1)")
        if self.drift_bound <= 0 or self.unit_roundoff <= 0:
            raise ConfigurationError("drift parameters must be positive")

    @classmethod
    def default(cls, window_size: int) -> "ControlVector":
        """The paper's operating point: ~10x arithmetic saving, p >= 0.95.

        Recomputing one FFT of cost ~W log2(W) every ``interval`` updates
        adds an amortized per-tuple cost of ``W log2(W) / interval``
        multiply-adds; choosing ``interval = reduction_factor * log2(W)``
        pins that amortized cost at ``W / reduction_factor`` -- a
        ``reduction_factor``-fold saving over the ~W multiply-adds a
        from-scratch per-tuple evaluation would need.  The drift-safe
        ceiling almost never binds at these scales.
        """
        if window_size < 1:
            raise ConfigurationError("window_size must be >= 1")
        reduction = 10.0
        log_term = max(1.0, math.log2(max(window_size, 2)))
        interval = max(1, int(reduction * log_term))
        vector = cls(recompute_interval=interval, reduction_factor=reduction)
        safe = vector.drift_safe_interval()
        if interval > safe:
            vector = cls(recompute_interval=safe, reduction_factor=reduction)
        return vector

    def drift_safe_interval(self) -> int:
        """Largest update count keeping worst-case drift within the bound."""
        return max(1, int(self.drift_bound / self.unit_roundoff))

    def should_recompute(self, updates_since_recompute: int) -> bool:
        """Whether the incremental state must be refreshed now."""
        return updates_since_recompute >= min(
            self.recompute_interval, self.drift_safe_interval()
        )
