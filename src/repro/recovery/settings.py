"""Knobs for the checkpoint/restart recovery subsystem.

Timed on the *simulated* clock and validated up front, in the same style
as :class:`~repro.net.reliable.ReliabilitySettings`.  The master switch
defaults off: a run without recovery is bit-for-bit the pre-recovery
simulator (crashed sites stay silent and lose their arrivals, exactly as
:mod:`repro.core.node` documents).  The rejoin protocol's timers and
bounds are constants of :mod:`repro.recovery.coordinator`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RecoverySettings:
    """The master switch and the checkpoint cadence."""

    enabled: bool = False
    """Master switch.  Off (the default) keeps legacy crash semantics:
    a crashed site loses its local arrivals outright and resumes silent
    with whatever state it had."""

    checkpoint_interval_s: float = 1.0
    """Simulated seconds between durable per-node state snapshots."""

    def validate(self) -> None:
        if self.checkpoint_interval_s <= 0:
            raise ConfigurationError("checkpoint_interval_s must be positive")
