"""Unit tests for the telemetry exporters and the Chrome-trace validator."""

import json

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.telemetry import (
    TelemetryHub,
    build_manifest,
    chrome_trace_events,
    export_all,
    export_chrome_trace,
    export_csv,
    export_jsonl,
    export_prometheus,
    validate_chrome_trace,
)
from repro.telemetry.exporters import EXPORT_FILENAMES


def populated_hub():
    """A small deterministic hub exercising every record shape."""
    hub = TelemetryHub(clock=lambda: 0.0)
    hub.emit("node.service", category="node", node=0, time=1.0, dur_s=0.25,
             kind="tuple")
    hub.emit("net.send", category="net", node=1, time=1.5, dst=0, kind="tuple")
    hub.emit("sched.compaction", category="scheduler", time=2.0, dropped=3)
    hub.registry.counter("repro_demo_total", node=0).inc(5)
    hub.registry.gauge("repro_demo_depth", node=1).set(2)
    hub.registry.histogram("repro_demo_seconds", edges=(0.1, 1.0)).observe(0.5)
    hub.sample_tick(1.0)
    hub.sample_tick(2.0)
    return hub


class TestJsonl:
    def test_manifest_first_then_events(self, tmp_path):
        hub = populated_hub()
        path = export_jsonl(hub, tmp_path / "events.jsonl", manifest={"seed": 7})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"type": "manifest", "manifest": {"seed": 7}}
        assert [line["type"] for line in lines[1:]] == ["event"] * 3
        assert lines[1]["name"] == "node.service"
        assert lines[1]["dur_s"] == 0.25
        assert lines[1]["attrs"] == {"kind": "tuple"}
        assert lines[3]["attrs"] == {"dropped": 3}
        assert "node" not in lines[3]

    def test_no_manifest_line_when_absent(self, tmp_path):
        path = export_jsonl(populated_hub(), tmp_path / "events.jsonl")
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "event"


class TestChromeTrace:
    def test_record_shapes(self):
        records = chrome_trace_events(populated_hub())
        by_phase = {}
        for record in records:
            by_phase.setdefault(record["ph"], []).append(record)
        # process_name + run track + one named node track per seen node.
        assert len(by_phase["M"]) == 4
        (span,) = by_phase["X"]
        assert span["name"] == "node.service"
        assert span["ts"] == pytest.approx(1.0e6)
        assert span["dur"] == pytest.approx(0.25e6)
        assert span["tid"] == 0
        instants = by_phase["i"]
        assert all(record["s"] == "t" for record in instants)
        # The schedulers' compaction event lands on the global track.
        assert instants[-1]["tid"] == -1

    def test_export_validates_and_carries_manifest(self, tmp_path):
        path = export_chrome_trace(
            populated_hub(), tmp_path / "trace.json", manifest={"seed": 7}
        )
        document = json.loads(path.read_text())
        assert document["otherData"] == {"seed": 7}
        counts = validate_chrome_trace(document)
        assert counts == {"M": 4, "X": 1, "i": 2}


class TestValidateChromeTrace:
    def _document(self, **overrides):
        record = {"ph": "i", "name": "e", "pid": 0, "tid": 0, "ts": 1.0, "s": "t"}
        record.update(overrides)
        return {"traceEvents": [record]}

    def test_rejects_non_object_document(self):
        with pytest.raises(ConfigurationError):
            validate_chrome_trace([])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ConfigurationError):
            validate_chrome_trace({"displayTimeUnit": "ms"})

    def test_rejects_bad_phase(self):
        with pytest.raises(ConfigurationError, match="invalid phase"):
            validate_chrome_trace(self._document(ph="Z"))

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError, match="name"):
            validate_chrome_trace(self._document(name=""))

    def test_rejects_non_integer_tid(self):
        with pytest.raises(ConfigurationError, match="tid"):
            validate_chrome_trace(self._document(tid="zero"))

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ConfigurationError, match="ts"):
            validate_chrome_trace(self._document(ts=-1.0))

    def test_rejects_span_without_duration(self):
        with pytest.raises(ConfigurationError, match="dur"):
            validate_chrome_trace(self._document(ph="X"))

    def test_rejects_instant_without_scope(self):
        record = self._document()
        del record["traceEvents"][0]["s"]
        with pytest.raises(ConfigurationError, match="scope"):
            validate_chrome_trace(record)


class TestPrometheus:
    def test_text_format(self, tmp_path):
        path = export_prometheus(populated_hub(), tmp_path / "metrics.prom")
        text = path.read_text()
        assert "# TYPE repro_demo_total counter" in text
        assert 'repro_demo_total{node="0"} 5' in text
        assert "# TYPE repro_demo_depth gauge" in text
        assert "# TYPE repro_demo_seconds histogram" in text
        # Cumulative buckets plus the +Inf catch-all, sum, and count.
        assert 'repro_demo_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_demo_seconds_bucket{le="1"} 1' in text
        assert 'repro_demo_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_demo_seconds_sum 0.5" in text
        assert "repro_demo_seconds_count 1" in text


class TestCsv:
    def test_rows(self, tmp_path):
        path = export_csv(populated_hub(), tmp_path / "timeseries.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,metric,labels,value"
        assert "1.0,repro_demo_total,node=0,5" in lines
        assert "2.0,repro_demo_depth,node=1,2" in lines


class TestExportAll:
    def test_writes_every_format(self, tmp_path):
        paths = export_all(
            populated_hub(), tmp_path / "out", manifest={"seed": 7}
        )
        assert set(paths) == set(EXPORT_FILENAMES)
        for kind, filename in EXPORT_FILENAMES.items():
            assert paths[kind] == tmp_path / "out" / filename
            assert paths[kind].is_file()

    def test_manifest_file_skipped_without_manifest(self, tmp_path):
        paths = export_all(populated_hub(), tmp_path / "out")
        assert "manifest" not in paths

    def test_exports_are_byte_identical_across_builds(self, tmp_path):
        first = export_all(populated_hub(), tmp_path / "a", manifest={"s": 1})
        second = export_all(populated_hub(), tmp_path / "b", manifest={"s": 1})
        for kind in first:
            assert first[kind].read_bytes() == second[kind].read_bytes(), kind


class TestManifest:
    def test_duck_typed_config(self):
        class FakeConfig:
            seed = 13

            def as_dict(self):
                return {"num_nodes": 3}

        manifest = build_manifest(FakeConfig())
        assert manifest["seed"] == 13
        assert manifest["config"] == {"num_nodes": 3}
        assert manifest["kernel_mode"] == "fast"
        assert manifest["telemetry"] == {"enabled": False}

    def test_kernel_mode_is_constant(self, monkeypatch):
        """Schema 1 keeps the field; the variable that moved it is gone."""
        monkeypatch.setenv("REPRO_NAIVE_KERNELS", "1")
        assert build_manifest(SystemConfig())["kernel_mode"] == "fast"
