"""repro.telemetry: unified metrics, tracing, and run manifests.

One observability spine for the whole reproduction, built from four
pieces:

* a :class:`~repro.telemetry.registry.MetricRegistry` of counters,
  gauges, and histograms keyed by node / node-pair / message kind,
  sampled on the *simulated* clock into ring-buffered time series;
* a :class:`~repro.telemetry.events.TelemetryHub` implementing the
  shared :class:`~repro.telemetry.events.Emitter` protocol the
  scheduler, links, nodes, forwarding policies, flow controller, and
  summary managers are instrumented against;
* exporters (:mod:`repro.telemetry.exporters`): JSONL event log,
  Chrome-trace timeline, Prometheus text dump, CSV time series -- all
  byte-identical for a given seed -- plus the run manifest
  (:mod:`repro.telemetry.manifest`) attached to every run result;
* an ASCII live dashboard (:mod:`repro.telemetry.dashboard`) for
  ``python -m repro ... --dashboard``.

Telemetry is off by default; enabling it is one config flag::

    from repro import SystemConfig, run_experiment
    from repro.telemetry import TelemetrySettings

    config = SystemConfig(telemetry=TelemetrySettings(enabled=True))
"""

from repro.telemetry.dashboard import AsciiDashboard
from repro.telemetry.events import Emitter, TelemetryEvent, TelemetryHub
from repro.telemetry.exporters import (
    EXPORT_FILENAMES,
    JsonlStreamWriter,
    chrome_trace_events,
    export_all,
    export_chrome_trace,
    export_csv,
    export_jsonl,
    export_prometheus,
    validate_chrome_trace,
)
from repro.telemetry.manifest import build_manifest
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    TimeSeries,
)
from repro.telemetry.settings import TelemetrySettings

__all__ = [
    "AsciiDashboard",
    "Counter",
    "EXPORT_FILENAMES",
    "Emitter",
    "Gauge",
    "Histogram",
    "JsonlStreamWriter",
    "MetricRegistry",
    "TelemetryEvent",
    "TelemetryHub",
    "TelemetrySettings",
    "TimeSeries",
    "build_manifest",
    "chrome_trace_events",
    "export_all",
    "export_chrome_trace",
    "export_csv",
    "export_jsonl",
    "export_prometheus",
    "validate_chrome_trace",
]
