"""Knobs for the overload-protection subsystem.

Everything is observed on the *simulated* clock and validated up front,
in the same style as :class:`~repro.recovery.settings.RecoverySettings`.
The master switch defaults off: a run without overload protection is
bit-for-bit the pre-overload simulator (service queues grow without
bound, exactly as the paper's prototype would under a saturating
arrival surge).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class OverloadSettings:
    """Queue bounds and detector watermarks.

    The dwell half of the hysteresis is
    :data:`repro.overload.detector.MIN_DWELL_S`; the refresh stretch a
    degraded node applies is
    :data:`repro.core.node.THROTTLE_REFRESH_STRETCH`.
    """

    enabled: bool = False
    """Master switch.  Off (the default) keeps legacy semantics: queues
    are unbounded and nodes never shed or throttle."""

    queue_bound: int = 64
    """Hard cap on a node's service-queue depth.  At the bound the node
    sheds deterministically (lowest-priority entry first); recovery
    anti-entropy (STATE_TRANSFER) is never shed."""

    throttle_watermark: int = 16
    """Queue depth at which the ladder steps NORMAL -> THROTTLED."""

    throttle_clear: int = 4
    """Depth at or below which THROTTLED may step back to NORMAL (after
    the detector's ``MIN_DWELL_S``) -- the hysteresis gap prevents mode
    flapping."""

    shed_watermark: int = 48
    """Queue depth at which the ladder steps THROTTLED -> SHEDDING."""

    shed_clear: int = 24
    """Depth at or below which SHEDDING may relax back to THROTTLED
    (after the detector's ``MIN_DWELL_S``)."""

    link_backlog_bound_s: float = 0.0
    """Per-link send-backlog cap in seconds of serialization delay; a
    message that would queue behind more than this is shed at the send
    buffer (it never serializes).  0 keeps link backlogs unbounded."""

    @classmethod
    def for_queue_bound(
        cls, queue_bound: int, link_backlog_bound_s: float = 0.0
    ) -> "OverloadSettings":
        """Enabled settings with watermarks proportional to the bound.

        Throttle engages at a quarter of the bound, shedding at three
        quarters, and each clear level sits below half its watermark, so
        any ``queue_bound >= 1`` yields a valid hysteresis ladder.
        """
        settings = cls(
            enabled=True,
            queue_bound=queue_bound,
            shed_watermark=max(1, (3 * queue_bound) // 4),
            shed_clear=max(0, queue_bound // 2 - 1),
            throttle_watermark=max(1, queue_bound // 4),
            throttle_clear=max(0, queue_bound // 8 - 1),
            link_backlog_bound_s=link_backlog_bound_s,
        )
        settings.validate()
        return settings

    def validate(self) -> None:
        if self.queue_bound < 1:
            raise ConfigurationError("queue_bound must be >= 1")
        if self.throttle_clear < 0:
            raise ConfigurationError("throttle_clear must be non-negative")
        if not self.throttle_clear < self.throttle_watermark:
            raise ConfigurationError(
                "throttle hysteresis needs throttle_clear < throttle_watermark"
            )
        if not self.shed_clear < self.shed_watermark:
            raise ConfigurationError(
                "shed hysteresis needs shed_clear < shed_watermark"
            )
        if self.throttle_watermark > self.shed_watermark:
            raise ConfigurationError(
                "ladder order needs throttle_watermark <= shed_watermark"
            )
        if self.shed_watermark > self.queue_bound:
            raise ConfigurationError(
                "shed_watermark must not exceed queue_bound (shedding must "
                "engage before the queue hits its cap)"
            )
        if self.link_backlog_bound_s < 0:
            raise ConfigurationError("link_backlog_bound_s must be non-negative")
