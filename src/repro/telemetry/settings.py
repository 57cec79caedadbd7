"""Telemetry configuration.

Telemetry is *off* by default and every knob lives in one frozen
dataclass so a :class:`~repro.config.SystemConfig` can carry it without
the runtime growing per-feature flags.  Every buffer is bounded (events,
per-series samples) by a constant of the module that owns it --
``EVENT_CAPACITY`` in :mod:`repro.telemetry.events`, ``SERIES_CAPACITY`` in
:mod:`repro.telemetry.registry` -- because an always-on observability
layer must not let a long run grow memory without limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TelemetrySettings:
    """Knobs for the :class:`~repro.telemetry.events.TelemetryHub`."""

    enabled: bool = False
    """Master switch.  Disabled, no hub is built and every instrumented
    call site pays exactly one ``is None`` check."""

    sample_interval_s: float = 1.0
    """Simulated seconds between registry sampling ticks (the resolution
    of the ring-buffered time series and the dashboard's refresh floor).
    A run whose span needs more ticks than a series ring holds stretches
    it by the smallest integer factor that covers the whole span."""

    trace_messages: bool = True
    """Emit one structured event per network send/deliver/drop: the
    wire-level trace of a run.  The single cardinality knob worth turning
    off on very chatty meshes."""

    dashboard: bool = False
    """Render the ASCII live dashboard during the run (CLI wires the
    output stream; the refresh cadence is
    :data:`repro.telemetry.dashboard.DASHBOARD_INTERVAL_S`)."""

    def validate(self) -> None:
        if self.sample_interval_s <= 0:
            raise ConfigurationError("sample_interval_s must be positive")
