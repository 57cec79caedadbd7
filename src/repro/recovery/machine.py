"""The explicit rejoin state machine.

One machine per node tracks where that node stands in the recovery
protocol::

    LIVE --crash--> DOWN --restart--> RESTORING --restored--> CATCHING_UP
                                                                |      |
                                                     synced ----+      +---- timeout
                                                       v                       v
                                                      LIVE              LIVE (degraded)

A crash in *any* up phase returns to DOWN (a node can die again while it
is still rejoining).  Every other trigger is only legal from exactly one
phase; anything else raises :class:`~repro.errors.SimulationError`,
because an out-of-order trigger means the coordination logic or the
system scheduler is broken -- not a condition to paper over.

The machine is pure bookkeeping: it holds no timers and sends no
messages (:class:`~repro.recovery.coordinator.RecoveryCoordinator` owns
those), which is what makes its transition table unit-testable in
isolation.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple


class RecoveryPhase(enum.Enum):
    """Where a node stands in the crash/rejoin protocol."""

    LIVE = "live"
    DOWN = "down"
    RESTORING = "restoring"
    CATCHING_UP = "catching_up"


_TRANSITIONS: Dict[Tuple[RecoveryPhase, str], RecoveryPhase] = {
    (RecoveryPhase.LIVE, "crash"): RecoveryPhase.DOWN,
    (RecoveryPhase.RESTORING, "crash"): RecoveryPhase.DOWN,
    (RecoveryPhase.CATCHING_UP, "crash"): RecoveryPhase.DOWN,
    (RecoveryPhase.DOWN, "restart"): RecoveryPhase.RESTORING,
    (RecoveryPhase.RESTORING, "restored"): RecoveryPhase.CATCHING_UP,
    (RecoveryPhase.CATCHING_UP, "synced"): RecoveryPhase.LIVE,
    (RecoveryPhase.CATCHING_UP, "timeout"): RecoveryPhase.LIVE,
}

TRIGGERS: Tuple[str, ...] = ("crash", "restart", "restored", "synced", "timeout")
"""Every trigger the machine understands, in protocol order."""


class RecoveryMachine:
    """Transition table, degraded flag, and rejoin-latency bookkeeping."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.phase = RecoveryPhase.LIVE
        self.degraded = False
        """Whether the last rejoin timed out before every peer resynced
        (the node is serving, but on summaries it refilled the slow way)."""

        self.history: List[Tuple[float, str, RecoveryPhase]] = []
        """Every applied transition: (time, trigger, resulting phase)."""

        self._restart_at: Optional[float] = None
        self.rejoin_latencies: List[float] = []
        """Per completed rejoin: seconds from restart to (re-)LIVE."""

    def can_apply(self, trigger: str) -> bool:
        """Whether ``trigger`` is legal in the current phase."""
        return (self.phase, trigger) in _TRANSITIONS

    def apply(self, trigger: str, now: float) -> RecoveryPhase:
        """Fire one transition; raises on anything the table forbids."""
        from repro.errors import SimulationError

        key = (self.phase, trigger)
        if key not in _TRANSITIONS:
            raise SimulationError(
                "node %d: recovery trigger %r is invalid in phase %s"
                % (self.node_id, trigger, self.phase.value)
            )
        self.phase = _TRANSITIONS[key]
        self.history.append((now, trigger, self.phase))
        if trigger == "crash":
            self._restart_at = None
        elif trigger == "restart":
            self._restart_at = now
        elif trigger in ("synced", "timeout"):
            self.degraded = trigger == "timeout"
            if self._restart_at is not None:
                self.rejoin_latencies.append(now - self._restart_at)
                self._restart_at = None
        return self.phase

    @property
    def is_serving(self) -> bool:
        """Whether the node processes work (LIVE or CATCHING_UP)."""
        return self.phase in (RecoveryPhase.LIVE, RecoveryPhase.CATCHING_UP)

    def counters(self) -> Dict[str, float]:
        counters: Dict[str, float] = {
            "transitions": float(len(self.history)),
            "rejoins_completed": float(len(self.rejoin_latencies)),
        }
        if self.rejoin_latencies:
            counters["rejoin_latency_mean_s"] = sum(self.rejoin_latencies) / len(
                self.rejoin_latencies
            )
            counters["rejoin_latency_max_s"] = max(self.rejoin_latencies)
        return counters
