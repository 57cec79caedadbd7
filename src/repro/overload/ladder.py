"""The explicit graceful-degradation ladder.

One ladder per node tracks how aggressively that node is trading
accuracy for headroom::

    NORMAL --throttle--> THROTTLED --shed--> SHEDDING
       ^                   |   ^                |
       +----- recover -----+   +---- relax -----+

Each step is only legal from exactly one mode, and the ladder never
skips a rung: a surge that warrants shedding fires ``throttle`` and then
``shed`` as two transitions, so the history always reads as a walk on
adjacent rungs.  Anything else raises
:class:`~repro.errors.SimulationError`, because an out-of-order trigger
means the detector driving the ladder is broken -- not a condition to
paper over.  This mirrors :class:`~repro.recovery.machine.RecoveryMachine`:
pure bookkeeping, no timers, no messages, unit-testable in isolation.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple


class DegradationMode(enum.Enum):
    """How aggressively a node is currently degrading service."""

    NORMAL = "normal"
    THROTTLED = "throttled"
    SHEDDING = "shedding"


_TRANSITIONS: Dict[Tuple[DegradationMode, str], DegradationMode] = {
    (DegradationMode.NORMAL, "throttle"): DegradationMode.THROTTLED,
    (DegradationMode.THROTTLED, "shed"): DegradationMode.SHEDDING,
    (DegradationMode.SHEDDING, "relax"): DegradationMode.THROTTLED,
    (DegradationMode.THROTTLED, "recover"): DegradationMode.NORMAL,
}

TRIGGERS: Tuple[str, ...] = ("throttle", "shed", "relax", "recover")
"""Every trigger the ladder understands, in escalation order."""


class DegradationLadder:
    """Transition table plus per-mode residency bookkeeping."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.mode = DegradationMode.NORMAL
        self.history: List[Tuple[float, str, DegradationMode]] = []
        """Every applied transition: (time, trigger, resulting mode)."""

        self._entered_at = 0.0
        self._residency: Dict[DegradationMode, float] = {
            mode: 0.0 for mode in DegradationMode
        }

    def apply(self, trigger: str, now: float) -> DegradationMode:
        """Fire one transition; raises on anything the table forbids."""
        from repro.errors import SimulationError

        key = (self.mode, trigger)
        if key not in _TRANSITIONS:
            raise SimulationError(
                "node %d: degradation trigger %r is invalid in mode %s"
                % (self.node_id, trigger, self.mode.value)
            )
        self._residency[self.mode] += max(0.0, now - self._entered_at)
        self.mode = _TRANSITIONS[key]
        self._entered_at = now
        self.history.append((now, trigger, self.mode))
        return self.mode

    @property
    def is_degraded(self) -> bool:
        return self.mode is not DegradationMode.NORMAL

    def mode_entered_at(self) -> float:
        """Simulated time the current mode was entered (dwell anchor)."""
        return self._entered_at

    def residency_seconds(self, now: float) -> Dict[str, float]:
        """Seconds spent in each mode, counting the open interval.

        Non-mutating: the open interval is added to a copy, so calling
        this mid-run (dashboard, telemetry samples) never perturbs the
        totals a later call reports.
        """
        out = {mode.value: seconds for mode, seconds in self._residency.items()}
        out[self.mode.value] += max(0.0, now - self._entered_at)
        return out

    def counters(self, now: float) -> Dict[str, float]:
        residency = self.residency_seconds(now)
        return {
            "transitions": float(len(self.history)),
            "throttled_seconds": residency[DegradationMode.THROTTLED.value],
            "shedding_seconds": residency[DegradationMode.SHEDDING.value],
        }
