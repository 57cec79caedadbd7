"""Benchmark for the sharded single-simulation engine.

One measurement: a 20-node full-window DFTT run, serial vs ``shards=4``,
with byte-identical results required before the clock is read.  On a
multi-core box the sharded run wins once per-round node work dominates
the barrier cost; with fewer cores than shards four spawn workers (each
paying a fresh interpreter + numpy import and replaying replicated
construction) can only lose and the number measures the OS scheduler,
so the file skips there.  The committed floor still sits far below 1x
-- the gate catches the engine *collapsing* (rounds serializing,
per-round respawns, runaway merge cost).  ``BENCH_shard.json`` records
the measured speedup; read it to see when sharding pays off.
"""

import json
from pathlib import Path

from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.system import run_experiment
from repro.profiling import Stopwatch

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_shard.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_shard_baseline.json"

NODES = 20
SHARDS = 4

RESULTS = {}
"""Accumulated measurements, written once by the final test."""


def _config():
    """A 20-node full-window run: large enough that per-round node work
    is the bulk of the wall clock, small enough for the bench job."""
    return SystemConfig(
        num_nodes=NODES,
        window_size=128,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=4.0),
        workload=WorkloadConfig(
            total_tuples=4000, domain=1024, arrival_rate=400.0
        ),
        seed=3,
    )


def _timed(fn):
    with Stopwatch() as watch:
        value = fn()
    return value, max(watch.wall_seconds, 1e-9)


def test_sharded_twenty_node_run_speedup(four_cores):
    """serial vs shards=4 on the same 20-node config; identity first."""
    config = _config()
    serial, serial_seconds = _timed(lambda: run_experiment(config))
    sharded, sharded_seconds = _timed(
        lambda: run_experiment(config, shards=SHARDS)
    )
    assert sharded.__dict__ == serial.__dict__, (
        "sharded run diverged from serial; the speedup is meaningless"
    )
    RESULTS["sharded_run"] = {
        "nodes": NODES,
        "shards": SHARDS,
        "base_seconds": serial_seconds,
        "fast_seconds": sharded_seconds,
        "speedup": serial_seconds / sharded_seconds,
    }
    assert RESULTS["sharded_run"]["speedup"] >= 0.1, (
        "sharded run took >10x serial time (%.2fx): the engine is "
        "collapsing, not just core-starved"
        % RESULTS["sharded_run"]["speedup"]
    )


def test_zz_write_report_and_gate_regressions(four_cores):
    """Write BENCH_shard.json; fail on >2x regression vs the baseline.

    (Named ``zz`` so pytest's file order runs it after the measurement.)
    """
    assert RESULTS, "no benchmark results collected"
    report = {"shard": RESULTS}
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    baseline = json.loads(BASELINE_PATH.read_text())["shard"]
    regressions = []
    for name, floor in baseline.items():
        measured = RESULTS.get(name, {}).get("speedup")
        if measured is None:
            continue
        if measured < floor["speedup"] / 2.0:
            regressions.append(
                "%s: %.2fx, baseline %.2fx" % (name, measured, floor["speedup"])
            )
    assert not regressions, "sharded speedup regressed >2x: %s" % "; ".join(
        regressions
    )
