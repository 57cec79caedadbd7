"""One workload, one fresh process: setup -> warmup -> measure -> collect.

The parent (:mod:`benchmarks.e2e.run`) starts this module once per
workload run and reads the JSON object it prints as its last line.  The
run is driven through public calls only, and its ``RunResult`` is
byte-identical to ``run_experiment(config)`` (``test_e2e.py`` checks):

* setup    ``DistributedJoinSystem(config)`` + ``schedule_workload()``,
           timed from the first line of this file, before ``repro`` and
           numpy are imported;
* warmup   ``scheduler.run_window(t)`` in small steps up to ``t_warm``:
           windows fill, twiddle tables and caches build;
* measure  ``scheduler.run(max_events=64)`` until the queue is empty, cut
           into 12 slices of equal tuples serviced;
* collect  ``system.run()``: the queue is already empty, so this is the
           accounting replay plus aggregation.

Slices are cut by tuples serviced, not by simulated time: BASE is not
sustainable at the cell's arrival rate (as in the paper's Fig. 11), so
three quarters of its measured work happens *after* the last arrival and
simulated-time boundaries inside the arrival span would leave it in one
unsliced drain.

In simulated time the arrivals are an open-loop Poisson schedule made at
setup from the seed; in host time the simulator is a batch job, so the
host metric is work completed per second at a stated input size.  Every
phase is metered in reference seconds (:mod:`benchmarks.e2e.calibrate`).
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Dict, Optional  # noqa: E402

import numpy  # noqa: E402

from benchmarks.e2e.calibrate import SAMPLE_EVERY_S, Calibrator, Meter, one_shot, pace  # noqa: E402
from benchmarks.e2e.cell import BY_NAME, CELL, SLICES, SMOKE_CELL, Cell, Workload, system_config  # noqa: E402
from benchmarks.e2e.spans import ROOT_SPAN, SpanRecorder  # noqa: E402

CHUNK_EVENTS = 64
"""Scheduler events between two looks at the clock in the measured phase
(2-12 ms of host time)."""

WARMUP_STEP_S = 0.05
"""Simulated seconds per ``run_window`` step of the warmup."""


def result_digest(result) -> str:
    """sha256 of the ``RunResult`` minus ``profile`` (the one field a
    traced run fills differently)."""
    payload = dataclasses.asdict(result)
    del payload["profile"]
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _state_counters(system) -> Dict[str, float]:
    """Cumulative counters read from public attributes of the live system."""
    nodes = system.nodes
    stats = system.network.stats
    transports = [node.transport for node in nodes if node.transport is not None]
    return {
        "events": system.scheduler.events_processed,
        "tuples_serviced": sum(node.tuples_processed for node in nodes),
        "bytes_sent": stats.total_bytes,
        "messages_lost": stats.messages_lost,
        "fallback_decisions": sum(node.policy.fallback_decisions for node in nodes),
        "retransmits": sum(transport.retransmits for transport in transports),
        "checkpoint_bytes": sum(node.checkpoint_bytes for node in nodes),
        "state_transfer_bytes": sum(node.state_transfer_bytes for node in nodes),
        "restarts": sum(node.restarts for node in nodes),
        "shed_tuples": sum(node.shed_tuples for node in nodes),
        "shed_messages": sum(node.shed_messages for node in nodes),
    }


def _phase(meter: Meter) -> Dict[str, float]:
    return {"wall_s": meter.wall_s, "ref_s": meter.ref_s}


def _build(workload: Workload, cell: Cell, seed: int, measured: int, profiler=None):
    from repro.core.system import DistributedJoinSystem

    system = DistributedJoinSystem(
        system_config(cell, workload, seed, measured), profiler=profiler
    )
    system.schedule_workload()
    return system


def setup_only(workload: Workload, cell: Cell, seed: int, measured: int, start: float) -> Dict[str, float]:
    """Import, build and schedule, nothing else: one ``setup_s`` sample."""
    _build(workload, cell, seed, measured)
    wall = time.perf_counter() - start
    return _phase(one_shot(Calibrator(), wall))


def run_workload(
    workload: Workload,
    cell: Cell,
    seed: int,
    measured: int,
    trace: bool = False,
    spans_out: Optional[str] = None,
    start: Optional[float] = None,
) -> Dict[str, object]:
    """Run one workload in this process and return its raw record."""
    clock = time.perf_counter
    if start is None:
        start = clock()
    recorder = None
    if trace:
        recorder = SpanRecorder()
        recorder.install()

    def span(name: str):
        return recorder.span(name) if recorder is not None else nullcontext()

    try:
        with span("phase.setup"):
            system = _build(workload, cell, seed, measured, profiler=recorder)
        setup_wall = clock() - start
        calibrator = Calibrator()
        setup = one_shot(calibrator, setup_wall)
        scheduler = system.scheduler
        nodes = system.nodes

        def serviced() -> int:
            return sum(node.tuples_processed for node in nodes)

        warmup_steps = iter(range(1, int(cell.t_warm / WARMUP_STEP_S) + 1))

        def warmup_step() -> bool:
            step = next(warmup_steps, None)
            if step is None:
                scheduler.run_window(cell.t_warm)
                return False
            scheduler.run_window(step * WARMUP_STEP_S)
            return True

        with span("phase.warmup"):
            warmup = pace(calibrator, warmup_step, every_s=5 * SAMPLE_EVERY_S)
        before = _state_counters(system)
        items_before = list(recorder.items) if recorder is not None else []
        # Index of the first span inside ``phase.measure`` (opened next).
        measure_lo = len(recorder) + 1 if recorder is not None else 0

        run = scheduler.run
        if recorder is not None:
            run = recorder.wrap(ROOT_SPAN, run)

        def until(target: float):
            def step() -> bool:
                if not scheduler.pending or serviced() >= target:
                    return False
                run(max_events=CHUNK_EVENTS)
                return True

            return step

        # Every scheduled tuple is serviced by the end of a run, so equal
        # shares of what is left to service make equal slices; the last
        # one also takes the drain tail.
        start_count = before["tuples_serviced"]
        to_service = cell.warmup_tuples + measured - start_count
        targets = [start_count + index * to_service / SLICES for index in range(1, SLICES)]
        slices = []
        cpu_start, wall_start = time.process_time(), clock()
        with span("phase.measure"):
            for target in targets + [float("inf")]:
                done = serviced()
                meter = pace(calibrator, until(target))
                slices.append(dict(_phase(meter), tuples=serviced() - done))
        cpu_share = (time.process_time() - cpu_start) / (clock() - wall_start)
        after = _state_counters(system)
        measure_hi = len(recorder) if recorder is not None else 0
        replay_ops = sum(len(node.accounting_ops) for node in nodes)

        collect_start = clock()
        with span("phase.collect"):
            result = system.run()
        collect = one_shot(calibrator, clock() - collect_start)
    finally:
        if recorder is not None:
            recorder.uninstall()

    scheduled = cell.warmup_tuples + measured
    shed = result.overload.get("shed_tuples", 0.0)
    replay_dropped = result.recovery.get("replay_dropped", 0.0)
    record: Dict[str, object] = {
        "warmup_tuples": cell.warmup_tuples,
        "measured_tuples": measured,
        "phases": {
            "setup": _phase(setup),
            "warmup": _phase(warmup),
            "measure": {
                key: sum(item[key] for item in slices) for key in ("wall_s", "ref_s")
            },
            "collect": _phase(collect),
        },
        "warmup_tuples_serviced": before["tuples_serviced"],
        "cpu_share": cpu_share,
        "slices": slices,
        "delta": {key: after[key] - before[key] for key in after},
        "max_queue_depth": max(node.max_queue_depth for node in nodes),
        "replay_ops": replay_ops,
        "result": {
            "epsilon": result.epsilon,
            "truth_pairs": result.truth_pairs,
            "reported_pairs": result.reported_pairs,
            "tuples_arrived": result.tuples_arrived,
            "msgs_per_result": result.messages_per_result_tuple,
            "sim_latency_p50_s": result.latency.get("p50", 0.0),
            "sim_latency_p95_s": result.latency.get("p95", 0.0),
        },
        "ops_attempted": scheduled,
        "ops_failed": int(scheduled - result.tuples_arrived + shed + replay_dropped),
        "result_digest": result_digest(result),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if recorder is not None:
        record["span_count"] = len(recorder)
        record["spans"] = recorder.summarize(measure_lo, measure_hi)
        record["collect_spans"] = recorder.summarize(measure_hi, len(recorder))
        record["items"] = {
            name: recorder.items[index]
            - (items_before[index] if index < len(items_before) else 0)
            for index, name in enumerate(recorder.names)
        }
        if spans_out:
            recorder.save(spans_out)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--measured", type=int, required=True, help="measured-phase tuples")
    parser.add_argument("--smoke", action="store_true", help="the N=6, W=32 cell")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = BY_NAME[args.workload]
    cell = SMOKE_CELL if args.smoke else CELL
    if args.setup_only:
        record: Dict[str, object] = setup_only(
            workload, cell, args.seed, args.measured, _PROCESS_START
        )
    else:
        record = run_workload(
            workload,
            cell,
            args.seed,
            args.measured,
            trace=args.trace,
            spans_out=args.spans_out,
            start=_PROCESS_START,
        )
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
