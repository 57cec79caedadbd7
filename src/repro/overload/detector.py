"""Deterministic overload detection.

The detector watches one node's service-queue depth on the *simulated*
clock and walks the :class:`~repro.overload.ladder.DegradationLadder`
one legal rung at a time.  Everything it consults -- queue depth, the
simulated time, the watermarks -- is a function of the node's own
history, so a seed fixes the mode trajectory.

Escalation is immediate (a queue at the shed watermark fires
``throttle`` and then ``shed`` in one observation); de-escalation is
hysteretic twice over: the clear watermarks sit strictly below the entry
watermarks, *and* a mode must have been held for ``MIN_DWELL_S``
simulated seconds before stepping down.  Both halves exist to stop the
ladder flapping when the depth oscillates around a watermark.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.overload.ladder import DegradationLadder, DegradationMode
from repro.overload.settings import OverloadSettings

MIN_DWELL_S = 0.25
"""Minimum simulated seconds a node stays in a degraded mode before
stepping down, even if the queue already drained -- the temporal half of
the hysteresis."""


class OverloadDetector:
    """Watermark + hysteresis logic driving one node's ladder."""

    def __init__(self, settings: OverloadSettings, ladder: DegradationLadder) -> None:
        self.settings = settings
        self.ladder = ladder

    def observe(self, now: float, queue_depth: int) -> List[Tuple[str, DegradationMode]]:
        """Step the ladder for one queue-depth observation.

        Returns the (trigger, resulting mode) transitions applied, in
        order -- empty for the common steady-state case.
        """
        applied: List[Tuple[str, DegradationMode]] = []
        s = self.settings

        # Escalate first, possibly two rungs in one observation.
        if self.ladder.mode is DegradationMode.NORMAL and queue_depth >= s.throttle_watermark:
            applied.append(("throttle", self.ladder.apply("throttle", now)))
        if self.ladder.mode is DegradationMode.THROTTLED and queue_depth >= s.shed_watermark:
            applied.append(("shed", self.ladder.apply("shed", now)))
        if applied:
            return applied

        # De-escalate at most one rung per observation, and only after
        # the clear watermark *and* the dwell both pass.
        if now - self.ladder.mode_entered_at() < MIN_DWELL_S:
            return applied
        if self.ladder.mode is DegradationMode.SHEDDING and queue_depth <= s.shed_clear:
            applied.append(("relax", self.ladder.apply("relax", now)))
        elif self.ladder.mode is DegradationMode.THROTTLED and queue_depth <= s.throttle_clear:
            applied.append(("recover", self.ladder.apply("recover", now)))
        return applied
