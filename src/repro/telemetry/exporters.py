"""Telemetry exporters: JSONL, Chrome trace, Prometheus text, CSV.

Four formats, one source of truth (the hub):

* **JSONL** -- the structured event log, one JSON object per line, with
  the run manifest as the first line.  The machine-diffable record.
* **Chrome trace** -- the Trace Event Format consumed by
  ``chrome://tracing`` and Perfetto: node service spans on per-node
  tracks, instant events for sends/drops/broadcasts/health flips.
* **Prometheus text** -- a scrape-style dump of every registry counter,
  gauge, and histogram.
* **CSV** -- the ring-buffered time series, flat ``time,metric,labels,
  value`` rows, ready for pandas/gnuplot.

Determinism contract: every export is a pure function of the simulated
run, serialized with sorted keys, so the same seed produces
byte-identical files.  The :func:`validate_chrome_trace` checker (also
exposed as ``python -m repro.telemetry.validate``) enforces the Trace
Event Format invariants CI gates on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.telemetry.events import TelemetryEvent, TelemetryHub
from repro.telemetry.registry import Histogram, format_labels

MICROSECONDS = 1_000_000.0
"""Trace Event Format timestamps are microseconds; ours are seconds."""

GLOBAL_TRACK = "run"
"""Thread name for events with no owning node."""


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------


def _event_payload(event: TelemetryEvent) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "type": "event",
        "seq": event.seq,
        "t": event.time,
        "name": event.name,
        "category": event.category,
    }
    if event.node is not None:
        payload["node"] = event.node
    if event.dur_s is not None:
        payload["dur_s"] = event.dur_s
    if event.attrs:
        payload["attrs"] = event.attrs
    return payload


def export_jsonl(
    hub: TelemetryHub,
    path: Path,
    manifest: Optional[Dict[str, object]] = None,
    events: Optional[Sequence[TelemetryEvent]] = None,
) -> Path:
    """Write the event log, manifest first, one JSON object per line.

    ``events`` are the hub's events when the caller already read them
    (:func:`export_all` reads them once for two formats)."""
    path = Path(path)
    with path.open("w") as handle:
        if manifest is not None:
            handle.write(
                json.dumps({"type": "manifest", "manifest": manifest}, sort_keys=True)
            )
            handle.write("\n")
        for event in hub.events() if events is None else events:
            handle.write(json.dumps(_event_payload(event), sort_keys=True))
            handle.write("\n")
    return path


class JsonlStreamWriter:
    """Incremental JSONL event log: each event hits disk as it is emitted.

    :func:`export_jsonl` serializes the hub's bounded ring *after* the
    run, so the log is capped at the ring capacity and nothing is
    durable until the run ends.  The stream writer is the incremental
    path: construct it with the run's manifest (the manifest is a pure
    function of the configuration, so it exists before the first event),
    attach it with ``hub.add_event_sink(writer.on_event)``, and every
    event is appended to the file the moment ``emit`` fires.  For runs
    whose ring never overflowed the bytes are identical to the buffered
    export -- the regression tests pin exactly that equivalence.
    """

    def __init__(
        self, path: Path, manifest: Optional[Dict[str, object]] = None
    ) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w")
        self.events_written = 0
        if manifest is not None:
            self._handle.write(
                json.dumps({"type": "manifest", "manifest": manifest}, sort_keys=True)
            )
            self._handle.write("\n")

    def on_event(self, event: TelemetryEvent) -> None:
        """The hub sink: serialize one event and append it."""
        self._handle.write(json.dumps(_event_payload(event), sort_keys=True))
        self._handle.write("\n")
        self.events_written += 1

    def close(self) -> Path:
        """Flush and close the log; idempotent."""
        if not self._handle.closed:
            self._handle.close()
        return self.path


# ----------------------------------------------------------------------
# Chrome trace (Trace Event Format)
# ----------------------------------------------------------------------


def chrome_trace_events(
    hub: TelemetryHub, events: Optional[Sequence[TelemetryEvent]] = None
) -> List[Dict[str, object]]:
    """Map hub events (``events`` when already read) onto Trace Event
    Format records.

    One process (pid 0), one thread per node; events without a node land
    on a dedicated ``run`` track (tid -1).  Events with a duration become
    complete ("X") spans, the rest thread-scoped instants ("i").
    """
    records: List[Dict[str, object]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro simulated run"},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 0,
            "tid": -1,
            "args": {"name": GLOBAL_TRACK},
        },
    ]
    named_nodes = set()
    for event in hub.events() if events is None else events:
        tid = -1 if event.node is None else int(event.node)
        if tid >= 0 and tid not in named_nodes:
            named_nodes.add(tid)
            records.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": "node %d" % tid},
                }
            )
        record: Dict[str, object] = {
            "name": event.name,
            "cat": event.category,
            "pid": 0,
            "tid": tid,
            "ts": event.time * MICROSECONDS,
        }
        if event.dur_s is not None:
            record["ph"] = "X"
            record["dur"] = event.dur_s * MICROSECONDS
        else:
            record["ph"] = "i"
            record["s"] = "t"
        if event.attrs:
            record["args"] = dict(event.attrs)
        records.append(record)
    return records


def export_chrome_trace(
    hub: TelemetryHub,
    path: Path,
    manifest: Optional[Dict[str, object]] = None,
    events: Optional[Sequence[TelemetryEvent]] = None,
) -> Path:
    """Write a ``chrome://tracing`` / Perfetto loadable timeline (of
    ``events`` when already read)."""
    path = Path(path)
    document: Dict[str, object] = {
        "traceEvents": chrome_trace_events(hub, events),
        "displayTimeUnit": "ms",
    }
    if manifest is not None:
        document["otherData"] = manifest
    path.write_text(json.dumps(document, sort_keys=True) + "\n")
    return path


_VALID_PHASES = {"X", "i", "M", "B", "E", "C"}
_INSTANT_SCOPES = {"g", "p", "t"}


def validate_chrome_trace(document: object) -> Dict[str, int]:
    """Check a parsed trace document against the Trace Event Format.

    Returns per-phase counts on success; raises
    :class:`~repro.errors.ConfigurationError` naming the first offending
    record otherwise.  This is the schema gate CI runs on the exported
    trace (``python -m repro.telemetry.validate trace.json``).
    """
    if not isinstance(document, dict):
        raise ConfigurationError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ConfigurationError("trace document needs a 'traceEvents' array")
    counts: Dict[str, int] = {}
    for index, record in enumerate(events):
        where = "traceEvents[%d]" % index
        if not isinstance(record, dict):
            raise ConfigurationError("%s is not an object" % where)
        phase = record.get("ph")
        if phase not in _VALID_PHASES:
            raise ConfigurationError("%s has invalid phase %r" % (where, phase))
        if not isinstance(record.get("name"), str) or not record["name"]:
            raise ConfigurationError("%s needs a non-empty 'name'" % where)
        for key in ("pid", "tid"):
            if not isinstance(record.get(key), int):
                raise ConfigurationError("%s needs integer %r" % (where, key))
        if phase != "M":
            ts = record.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ConfigurationError(
                    "%s needs a non-negative numeric 'ts'" % where
                )
        if phase == "X":
            dur = record.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ConfigurationError(
                    "%s (complete event) needs non-negative 'dur'" % where
                )
        if phase == "i" and record.get("s") not in _INSTANT_SCOPES:
            raise ConfigurationError(
                "%s (instant event) needs scope 's' in %s"
                % (where, sorted(_INSTANT_SCOPES))
            )
        counts[phase] = counts.get(phase, 0) + 1
    return counts


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels) -> str:
    if not labels:
        return ""
    body = ",".join('%s="%s"' % (key, value) for key, value in labels)
    return "{%s}" % body


def _prom_number(value: float) -> str:
    if float(value).is_integer():
        return "%d" % int(value)
    return repr(float(value))


def export_prometheus(hub: TelemetryHub, path: Path) -> Path:
    """Write a Prometheus text-format dump of the registry."""
    path = Path(path)
    lines: List[str] = []
    typed: set = set()
    for instrument in hub.registry.instruments():
        name = _prom_name(instrument.name)
        if isinstance(instrument, Histogram):
            if name not in typed:
                typed.add(name)
                lines.append("# TYPE %s histogram" % name)
            cumulative = 0
            for edge, count in zip(instrument.edges, instrument.counts):
                cumulative += count
                labels = instrument.labels + (("le", _prom_number(edge)),)
                lines.append(
                    "%s_bucket%s %d" % (name, _prom_labels(labels), cumulative)
                )
            labels = instrument.labels + (("le", "+Inf"),)
            lines.append(
                "%s_bucket%s %d" % (name, _prom_labels(labels), instrument.count)
            )
            lines.append(
                "%s_sum%s %s"
                % (name, _prom_labels(instrument.labels), _prom_number(instrument.total))
            )
            lines.append(
                "%s_count%s %d"
                % (name, _prom_labels(instrument.labels), instrument.count)
            )
            continue
        if name not in typed:
            typed.add(name)
            lines.append("# TYPE %s %s" % (name, instrument.kind))
        lines.append(
            "%s%s %s"
            % (
                name,
                _prom_labels(instrument.labels),
                _prom_number(instrument.sample_value()),
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


# ----------------------------------------------------------------------
# CSV time series
# ----------------------------------------------------------------------


def export_csv(hub: TelemetryHub, path: Path) -> Path:
    """Write the sampled time series as flat CSV rows."""
    path = Path(path)
    lines = ["time_s,metric,labels,value"]
    for metric, labels, time, value in hub.registry.series_rows():
        lines.append("%s,%s,%s,%s" % (repr(time), metric, labels, _prom_number(value)))
    path.write_text("\n".join(lines) + "\n")
    return path


# ----------------------------------------------------------------------
# one-call export
# ----------------------------------------------------------------------

EXPORT_FILENAMES = {
    "jsonl": "events.jsonl",
    "chrome_trace": "trace.json",
    "prometheus": "metrics.prom",
    "csv": "timeseries.csv",
    "manifest": "manifest.json",
}


def export_all(
    hub: TelemetryHub,
    directory: Path,
    manifest: Optional[Dict[str, object]] = None,
    skip: Tuple[str, ...] = (),
) -> Dict[str, Path]:
    """Write every format into ``directory``; returns the paths by kind.

    ``skip`` names formats already produced elsewhere -- the CLI streams
    the JSONL log during the run via :class:`JsonlStreamWriter` and
    passes ``skip=("jsonl",)`` so the buffered exporter does not clobber
    the (possibly more complete) streamed file.  The hub's events are
    read once for the two formats that list them.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, Path] = {}
    events = list(hub.events())
    if "jsonl" not in skip:
        paths["jsonl"] = export_jsonl(
            hub, directory / EXPORT_FILENAMES["jsonl"], manifest, events
        )
    if "chrome_trace" not in skip:
        paths["chrome_trace"] = export_chrome_trace(
            hub, directory / EXPORT_FILENAMES["chrome_trace"], manifest, events
        )
    if "prometheus" not in skip:
        paths["prometheus"] = export_prometheus(
            hub, directory / EXPORT_FILENAMES["prometheus"]
        )
    if "csv" not in skip:
        paths["csv"] = export_csv(hub, directory / EXPORT_FILENAMES["csv"])
    if manifest is not None:
        manifest_path = directory / EXPORT_FILENAMES["manifest"]
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        paths["manifest"] = manifest_path
    return paths
