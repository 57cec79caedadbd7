"""End-to-end telemetry: zero drift, determinism, full-run exports.

The telemetry contract has two halves this module pins down at the
system level:

* **Zero drift** -- enabling telemetry changes nothing observable about
  the simulation itself.  Sampling callbacks are pure reads on the
  scheduler's pre-scheduled ticks, so an instrumented run reproduces a
  dark run result-for-result.
* **Determinism** -- everything telemetry records is a function of the
  seed and the simulated clock, so the same configuration exports
  byte-identical JSONL/Chrome-trace/CSV files every time.
"""

import dataclasses
import io
import json

import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    TelemetrySettings,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.system import DistributedJoinSystem
from repro.telemetry import export_all, validate_chrome_trace


def telemetry_config(enabled=True, dashboard=False):
    return SystemConfig(
        num_nodes=3,
        window_size=64,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=4.0),
        workload=WorkloadConfig(
            kind=WorkloadKind.ZIPF,
            total_tuples=900,
            domain=512,
            arrival_rate=150.0,
        ),
        telemetry=TelemetrySettings(enabled=enabled, dashboard=dashboard),
        seed=19,
    )


def run_system(config):
    system = DistributedJoinSystem(config)
    return system, system.run()


class TestZeroDrift:
    def test_enabled_run_matches_dark_run(self):
        _, dark = run_system(telemetry_config(enabled=False))
        _, lit = run_system(telemetry_config(enabled=True))
        assert lit.summary() == dark.summary()
        assert lit.traffic == dark.traffic
        assert lit.messages_by_kind == dark.messages_by_kind
        assert lit.node_diagnostics == dark.node_diagnostics
        assert lit.throughput_series == dark.throughput_series

    def test_dark_run_has_no_hub_but_still_a_manifest(self):
        system, result = run_system(telemetry_config(enabled=False))
        assert system.telemetry is None
        assert result.telemetry == {}
        assert result.manifest["seed"] == 19
        assert result.manifest["telemetry"]["enabled"] is False


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def run(self):
        return run_system(telemetry_config())

    def test_summary_attached_to_result(self, run):
        _, result = run
        assert result.telemetry["events_emitted"] > 0
        assert result.telemetry["samples_taken"] > 0
        assert result.telemetry["instruments"] > 0
        assert result.manifest["telemetry"]["enabled"] is True

    def test_expected_instruments_exist(self, run):
        system, _ = run
        registry = system.telemetry.registry
        assert registry.get("repro_net_messages_total", kind="tuple").value > 0
        assert registry.get("repro_node_tuples_processed", node=0).value > 0
        assert registry.get("repro_sched_events_processed").value > 0
        fanout = registry.get("repro_node_fanout", node=0)
        assert fanout is not None and fanout.count > 0
        # Counters snapshotted from TrafficStats agree with the stats view.
        stats = system.network.stats
        assert (
            registry.get("repro_traffic_messages_total", kind="tuple").value
            == stats.messages_by_kind.get("tuple", 0)
        )

    def test_events_cover_every_layer(self, run):
        system, _ = run
        categories = system.telemetry.counts_by_category()
        assert categories.get("net", 0) > 0
        assert categories.get("node", 0) > 0
        assert categories.get("summary", 0) > 0

    def test_time_series_sampled_on_simulated_clock(self, run):
        system, result = run
        series = system.telemetry.registry.get(
            "repro_sched_events_processed"
        ).series
        times = [time for time, _ in series]
        assert times == sorted(times)
        assert len(times) == len(set(times))
        settings = system.config.telemetry
        assert times[0] == settings.sample_interval_s
        # The sampling horizon deliberately outlives the drain so the
        # run's tail stays visible; observation ticks never stretch the
        # reported duration.
        assert times[-1] >= result.duration_seconds
        assert system.scheduler.material_now == result.duration_seconds

    def test_message_trace_marks_outcomes(self, run):
        system, result = run
        assert system.network.telemetry is system.telemetry
        assert result.telemetry["events_dropped"] == 0
        counts = {}
        for event in system.telemetry.events():
            if event.category == "net":
                counts[event.name] = counts.get(event.name, 0) + 1
        # Lossless run: every send reached its destination.
        assert set(counts) == {"net.send", "net.deliver"}
        assert counts["net.send"] == counts["net.deliver"]
        assert counts["net.send"] == sum(result.messages_by_kind.values())

    def test_events_carry_no_raw_message_ids(self, run):
        system, _ = run
        assert all(
            "message_id" not in event.attrs
            for event in system.telemetry.events()
        )


class TestDeterministicExports:
    def test_exports_are_byte_identical_across_runs(self, tmp_path):
        directories = []
        for name in ("a", "b"):
            system, result = run_system(telemetry_config())
            directory = tmp_path / name
            export_all(system.telemetry, directory, manifest=result.manifest)
            directories.append(directory)
        first, second = directories
        compared = 0
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes(), path.name
            compared += 1
        assert compared == 5

    def test_exported_trace_passes_the_ci_gate(self, tmp_path):
        system, result = run_system(telemetry_config())
        paths = export_all(system.telemetry, tmp_path, manifest=result.manifest)
        document = json.loads(paths["chrome_trace"].read_text())
        counts = validate_chrome_trace(document)
        assert counts.get("X", 0) > 0
        assert counts.get("i", 0) > 0
        assert document["otherData"]["seed"] == 19
        manifest_line = json.loads(
            paths["jsonl"].read_text().splitlines()[0]
        )
        assert manifest_line["type"] == "manifest"
        assert manifest_line["manifest"] == result.manifest


class TestDashboard:
    def test_dashboard_renders_frames_without_perturbing_the_run(self):
        system = DistributedJoinSystem(telemetry_config(dashboard=True))
        buffer = io.StringIO()
        system.dashboard.stream = buffer
        result = system.run()
        output = buffer.getvalue()
        assert system.dashboard.frames_rendered > 1
        assert "repro dashboard" in output
        assert "traffic:" in output
        assert "sparklines" in output
        assert "sched_pending_events" in output
        _, dark = run_system(telemetry_config(enabled=False))
        assert result.summary() == dark.summary()


class TestHarnessWiring:
    def test_system_config_threads_telemetry_through(self):
        from repro.experiments.harness import SCALES, system_config

        config = system_config(
            SCALES["smoke"],
            Algorithm.DFTT,
            num_nodes=3,
            telemetry=True,
            telemetry_sample_interval_s=0.5,
        )
        assert config.telemetry.enabled
        assert config.telemetry.sample_interval_s == 0.5
