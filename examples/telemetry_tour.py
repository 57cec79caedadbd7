"""A full tour of the telemetry subsystem on one ZIPF/DFTT run.

One instrumented run produces all four export formats:

* ``events.jsonl``    -- the structured event log (manifest first line);
* ``trace.json``      -- a Chrome-trace / Perfetto-loadable timeline of
  per-node service spans and network instants;
* ``metrics.prom``    -- a Prometheus text dump of every counter, gauge,
  and histogram;
* ``timeseries.csv``  -- the sampled registry time series, flat rows;

plus ``manifest.json``, the standalone provenance record.  The script
also pokes at the in-memory views the exports are generated from: the
metric registry and the event ring, whose ``net.deliver`` / ``net.drop``
events give each message's outcome.

Determinism: run this twice and diff the output directory -- every file
is byte-identical, because exports contain only simulated time and
seeded state.

Run:  python examples/telemetry_tour.py [output-dir]
"""

import sys
from collections import Counter
from pathlib import Path

from repro import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    TelemetrySettings,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.system import DistributedJoinSystem
from repro.telemetry import export_all, validate_chrome_trace


def build_config() -> SystemConfig:
    return SystemConfig(
        num_nodes=4,
        window_size=128,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=8),
        workload=WorkloadConfig(
            kind=WorkloadKind.ZIPF,
            total_tuples=3_000,
            domain=1_024,
            arrival_rate=200.0,
        ),
        telemetry=TelemetrySettings(enabled=True, sample_interval_s=1.0),
        seed=7,
    )


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("telemetry-tour-out")
    system = DistributedJoinSystem(build_config())
    result = system.run()
    hub = system.telemetry

    print("run: epsilon %.4f, %d reported pairs, %.1f simulated seconds" % (
        result.epsilon, result.reported_pairs, result.duration_seconds))
    print()

    # -- the in-memory views the exports are generated from ------------
    print("hub: %d events emitted (%s)" % (
        hub.events_emitted,
        ", ".join("%s=%d" % kv for kv in sorted(hub.counts_by_category().items())),
    ))
    print("registry: %d instruments, %d sampling ticks" % (
        len(hub.registry), hub.registry.samples_taken))
    tuples_sent = hub.registry.get("repro_net_messages_total", kind="tuple")
    if tuples_sent is not None:
        print("tuple messages on the wire: %d" % int(tuples_sent.value))
    outcomes = Counter(
        event.name for event in hub.events() if event.name in ("net.deliver", "net.drop")
    )
    print("message outcomes: %s" % (
        ", ".join("%s=%d" % kv for kv in sorted(outcomes.items()))))
    print()

    # -- all four export formats + the manifest ------------------------
    paths = export_all(hub, out_dir, manifest=result.manifest)
    for kind in sorted(paths):
        path = paths[kind]
        print("wrote %-12s %s (%d bytes)" % (kind, path, path.stat().st_size))

    # The Chrome trace passes the same schema gate CI runs.
    import json

    counts = validate_chrome_trace(json.loads(paths["chrome_trace"].read_text()))
    print()
    print("chrome trace validates: %s" % (
        ", ".join("%s=%d" % kv for kv in sorted(counts.items()))))
    print("load it at chrome://tracing or https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    sys.exit(main())
