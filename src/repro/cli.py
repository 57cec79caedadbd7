"""Command-line interface: run one distributed-join experiment.

Usage::

    python -m repro --algorithm DFTT --nodes 8 --workload ZIPF \
        --tuples 8000 --window 512 --kappa 64 --seed 7

Prints the headline metrics (epsilon, messages per result tuple,
throughput, overhead) and, with ``--verbose``, the per-node diagnostics.

The figure/table reproductions are reachable both directly
(``python -m repro.experiments.report``, ``python -m
repro.experiments.chaos``) and through the ``experiments`` subcommand::

    python -m repro experiments report smoke --only fig9
    python -m repro experiments chaos smoke --fault-grid "clean; storm@loss=0.4"

Both sweep CLIs accept ``--jobs N`` to fan cells over pool workers and
``--no-cache`` / ``--cache-dir`` to control the run-result cache;
simulation output is byte-identical at any jobs/cache setting.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WindowKind,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.flow import FlowSettings
from repro.core.system import DistributedJoinSystem
from repro.errors import ReproError


def float_not_nan(text: str) -> float:
    """The ``type=`` of every float option of the ``run`` and ``experiments
    chaos`` parsers.  NaN compares false with everything: unchecked, a NaN
    rate crashes a run and a NaN bound or tolerance is silently ignored.
    So it is a usage error (exit 2), like any other non-number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError("invalid float value: %r" % text)
    return value


def non_negative_int(text: str) -> int:
    """The ``type=`` of a count where a negative value means nothing (the
    run parser's ``--profile``, chaos's ``--nodes``, both sweeps' ``--jobs``):
    a usage error (exit 2), rather than silently running unprofiled or at
    another size, or failing after the sweep has started."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("invalid non-negative int value: %r" % text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate distributed stream joins (ICDCS 2007 reproduction)",
    )
    parser.add_argument(
        "--algorithm",
        default="DFTT",
        choices=[a.value for a in Algorithm],
        help="forwarding algorithm (default: DFTT)",
    )
    parser.add_argument("--nodes", type=int, default=6, help="number of nodes")
    parser.add_argument("--window", type=int, default=256, help="window size (tuples)")
    parser.add_argument(
        "--window-seconds",
        type=float_not_nan,
        default=0.0,
        help="use time-based windows of this many simulated seconds",
    )
    parser.add_argument(
        "--workload",
        default="ZIPF",
        choices=[w.value for w in WorkloadKind],
        help="workload kind (default: ZIPF)",
    )
    parser.add_argument("--tuples", type=int, default=6000, help="total tuples")
    parser.add_argument("--domain", type=int, default=4096, help="key domain size")
    parser.add_argument("--alpha", type=float_not_nan, default=0.4, help="Zipf skew")
    parser.add_argument(
        "--rate", type=float_not_nan, default=250.0, help="arrivals per second"
    )
    parser.add_argument(
        "--kappa", type=float_not_nan, default=16.0, help="compression factor"
    )
    parser.add_argument(
        "--budget",
        type=float_not_nan,
        default=0.0,
        help="flow budget T_i override (default: log2 N)",
    )
    parser.add_argument(
        "--skew", type=float_not_nan, default=0.85, help="geographic skew"
    )
    parser.add_argument(
        "--loss", type=float_not_nan, default=0.0, help="message loss rate"
    )
    parser.add_argument(
        "--fault-plan",
        default="",
        metavar="PLAN",
        help="fault schedule: a JSON file, a spec file, or an inline spec "
        "like 'partition@t=10s,d=5s' or 'crash@t=8,d=2,node=1;loss@t=12,d=3,p=0.4'",
    )
    parser.add_argument(
        "--reliable",
        action="store_true",
        help="enable the control-plane ARQ, heartbeats, and graceful degradation",
    )
    parser.add_argument(
        "--retransmit-timeout",
        type=float_not_nan,
        default=0.0,
        metavar="SECONDS",
        help="initial ack deadline for reliable control messages (implies --reliable)",
    )
    parser.add_argument(
        "--staleness-budget",
        type=float_not_nan,
        default=None,
        metavar="SECONDS",
        help="max tolerated summary age before degradation, 0 to disable "
        "(implies --reliable)",
    )
    parser.add_argument(
        "--degradation",
        default="",
        choices=["", "broadcast", "suppress"],
        help="what to do with tuples for stale/suspected peers (implies --reliable)",
    )
    parser.add_argument(
        "--recovery",
        action="store_true",
        help="enable checkpoint/restart recovery: restartable crashes "
        "(crash@...,downtime=D) rejoin via snapshot restore, arrival "
        "replay, and peer state transfer (implies --reliable)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float_not_nan,
        default=0.0,
        metavar="SECONDS",
        help="simulated seconds between durable per-node checkpoints "
        "(implies --recovery; default 1.0)",
    )
    parser.add_argument(
        "--overload",
        action="store_true",
        help="enable overload protection: bounded service queues, the "
        "NORMAL/THROTTLED/SHEDDING degradation ladder, and deterministic "
        "priority-ordered load shedding",
    )
    parser.add_argument(
        "--queue-bound",
        type=int,
        default=0,
        metavar="N",
        help="hard per-node service-queue bound in work items "
        "(implies --overload; default 64)",
    )
    parser.add_argument(
        "--link-backlog-bound",
        type=float_not_nan,
        default=0.0,
        metavar="SECONDS",
        help="shed messages once a link's send backlog exceeds this many "
        "seconds of serialization (implies --overload; 0 = unbounded)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="enable the telemetry subsystem (metrics, events, traces)",
    )
    parser.add_argument(
        "--telemetry-export",
        default="",
        metavar="DIR",
        help="write all telemetry export formats (JSONL, Chrome trace, "
        "Prometheus text, CSV, manifest) into DIR (implies --telemetry)",
    )
    parser.add_argument(
        "--telemetry-sample",
        type=float_not_nan,
        default=None,
        metavar="SECONDS",
        help="registry sampling interval in simulated seconds "
        "(implies --telemetry; default 1.0)",
    )
    parser.add_argument(
        "--dashboard",
        action="store_true",
        help="render the ASCII live dashboard to stderr during the run "
        "(implies --telemetry)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--verbose", action="store_true", help="per-node diagnostics")
    parser.add_argument(
        "--profile",
        type=non_negative_int,
        default=0,
        metavar="N",
        help="profile the run: print the top-N cProfile entries by "
        "cumulative time (0 disables)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> SystemConfig:
    """Translate parsed CLI arguments into a :class:`SystemConfig`."""
    from repro.net.faults import FaultPlan, load_fault_plan
    from repro.net.link import LinkSpec
    from repro.net.reliable import ReliabilitySettings
    import dataclasses

    from repro.errors import ConfigurationError

    # A negative duration has no meaning: a usage error that names the
    # option, not a setting silently dropped or blamed on another one.
    for option, value in (
        ("--window-seconds", args.window_seconds),
        ("--retransmit-timeout", args.retransmit_timeout),
        ("--staleness-budget", args.staleness_budget),
        ("--checkpoint-interval", args.checkpoint_interval),
    ):
        if value is not None and value < 0:
            raise ConfigurationError("%s must be non-negative" % option)
    window_kind = WindowKind.TIME if args.window_seconds > 0 else WindowKind.COUNT
    faults = (
        load_fault_plan(args.fault_plan, args.nodes)
        if args.fault_plan
        else FaultPlan()
    )
    from repro.recovery import RecoverySettings

    recovery_on = args.recovery or args.checkpoint_interval > 0
    recovery_overrides = {"enabled": True}
    if args.checkpoint_interval > 0:
        recovery_overrides["checkpoint_interval_s"] = args.checkpoint_interval
    recovery = (
        dataclasses.replace(RecoverySettings(), **recovery_overrides)
        if recovery_on
        else RecoverySettings()
    )
    reliable = (
        args.reliable
        or args.retransmit_timeout > 0
        or args.staleness_budget is not None
        or bool(args.degradation)
        or recovery_on
    )
    overrides = {"enabled": True}
    if args.retransmit_timeout > 0:
        overrides["retransmit_timeout_s"] = args.retransmit_timeout
    if args.staleness_budget is not None:
        overrides["staleness_budget_s"] = args.staleness_budget
    if args.degradation:
        overrides["degradation_mode"] = args.degradation
    reliability = (
        dataclasses.replace(ReliabilitySettings(), **overrides)
        if reliable
        else ReliabilitySettings()
    )
    from repro.overload import OverloadSettings

    if args.queue_bound < 0:
        raise ConfigurationError("--queue-bound must be positive")
    if args.link_backlog_bound < 0:
        raise ConfigurationError("--link-backlog-bound must be non-negative")
    overload_on = (
        args.overload or args.queue_bound > 0 or args.link_backlog_bound > 0
    )
    if not overload_on:
        overload = OverloadSettings()
    else:
        # Watermarks scale with the bound, so any bound yields a valid
        # hysteresis ladder and --overload alone means --queue-bound 64,
        # as it does for `experiments chaos`.
        overload = OverloadSettings.for_queue_bound(
            args.queue_bound or 64, link_backlog_bound_s=args.link_backlog_bound
        )
    from repro.telemetry import TelemetrySettings

    telemetry_on = (
        args.telemetry
        or bool(args.telemetry_export)
        or args.telemetry_sample is not None
        or args.dashboard
    )
    telemetry_overrides = {"enabled": True, "dashboard": args.dashboard}
    if args.telemetry_sample is not None:
        # An explicit bad value (0, negative) flows through to
        # TelemetrySettings.validate() and exits 2 like any config error.
        telemetry_overrides["sample_interval_s"] = args.telemetry_sample
    telemetry = (
        dataclasses.replace(TelemetrySettings(), **telemetry_overrides)
        if telemetry_on
        else TelemetrySettings()
    )
    return SystemConfig(
        num_nodes=args.nodes,
        window_size=args.window,
        window_kind=window_kind,
        window_seconds=args.window_seconds,
        policy=PolicyConfig(
            algorithm=Algorithm(args.algorithm),
            kappa=args.kappa,
            flow=FlowSettings(budget_override=args.budget),
        ),
        workload=WorkloadConfig(
            kind=WorkloadKind(args.workload),
            total_tuples=args.tuples,
            domain=args.domain,
            alpha=args.alpha,
            arrival_rate=args.rate,
            skew=args.skew,
        ),
        link=LinkSpec(
            bandwidth_bps=math.inf,
            loss_probability=args.loss,
        ),
        reliability=reliability,
        faults=faults,
        telemetry=telemetry,
        recovery=recovery,
        overload=overload,
        seed=args.seed,
    )


EXPERIMENT_COMMANDS = ("chaos", "report")


def experiments_main(argv: Sequence[str]) -> int:
    """Dispatch ``repro experiments <name> ...`` to the harness CLIs."""
    help_requested = bool(argv) and argv[0] in ("-h", "--help")
    if not argv or help_requested:
        print(
            "usage: repro experiments {%s} [args...]\n\n"
            "  chaos   accuracy-vs-failure-rate sweep under injected faults\n"
            "  report  every table/figure reproduction in one run\n\n"
            "both accept --jobs N (parallel workers), --no-cache,\n"
            "and --cache-dir DIR (run-result cache; REPRO_CACHE_DIR)"
            % ",".join(EXPERIMENT_COMMANDS),
            file=sys.stdout if help_requested else sys.stderr,
        )
        return 0 if help_requested else 2
    name, rest = argv[0], list(argv[1:])
    if name == "chaos":
        from repro.experiments.chaos import main as chaos_main

        return chaos_main(rest)
    if name == "report":
        from repro.experiments.report import main as report_main

        return report_main(rest)
    print(
        "error: unknown experiment command %r (choose from %s)"
        % (name, ", ".join(EXPERIMENT_COMMANDS)),
        file=sys.stderr,
    )
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "experiments":
        return experiments_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    profile_report = ""
    try:
        config = config_from_args(args)
        config.validate()
        system = DistributedJoinSystem(config)
        stream_writer = None
        if args.telemetry_export and system.telemetry is not None:
            # The JSONL log is streamed during the run (the manifest is a
            # pure function of the configuration, so it can head the file
            # before the first event); export_all below skips it.
            from pathlib import Path

            from repro.telemetry import (
                EXPORT_FILENAMES,
                JsonlStreamWriter,
                build_manifest,
            )

            directory = Path(args.telemetry_export)
            directory.mkdir(parents=True, exist_ok=True)
            stream_writer = JsonlStreamWriter(
                directory / EXPORT_FILENAMES["jsonl"],
                manifest=build_manifest(config),
            )
            system.telemetry.add_event_sink(stream_writer.on_event)
        try:
            if args.profile > 0:
                from repro.profiling import profile_call

                result, profile_report = profile_call(system.run, top=args.profile)
            else:
                result = system.run()
        finally:
            if stream_writer is not None:
                stream_writer.close()
        export_paths = {}
        if args.telemetry_export:
            from repro.telemetry import export_all

            export_paths = export_all(
                system.telemetry,
                args.telemetry_export,
                manifest=result.manifest,
                skip=("jsonl",) if stream_writer is not None else (),
            )
            if stream_writer is not None:
                export_paths["jsonl"] = stream_writer.path
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2

    if args.json:
        payload = {
            "config": result.config,
            "metrics": result.summary(),
            "messages_by_kind": result.messages_by_kind,
        }
        if result.reliability:
            payload["reliability"] = result.reliability
        if result.faults:
            payload["faults"] = result.faults
        if result.recovery:
            payload["recovery"] = result.recovery
        if result.overload:
            payload["overload"] = result.overload
        if result.telemetry:
            payload["telemetry"] = result.telemetry
        if export_paths:
            payload["telemetry_exports"] = {
                kind: str(path) for kind, path in sorted(export_paths.items())
            }
        if args.verbose:
            payload["node_diagnostics"] = {
                str(node): diag for node, diag in result.node_diagnostics.items()
            }
        print(json.dumps(payload, indent=2, default=float))
        if profile_report:
            print(profile_report, file=sys.stderr)
        return 0

    print("algorithm        %s" % result.config["algorithm"])
    print("nodes            %s" % result.config["num_nodes"])
    print("workload         %s (%s tuples)" % (
        result.config["workload"], result.config["total_tuples"]))
    print("epsilon          %.4f" % result.epsilon)
    print("exact pairs      %d" % result.truth_pairs)
    print("reported pairs   %d" % result.reported_pairs)
    print("msgs/result      %.3f" % result.messages_per_result_tuple)
    print("msgs/arrival     %.3f" % result.messages_per_arrival)
    print("throughput       %.1f results/s" % result.throughput)
    print("summary overhead %.2f%%" % (100 * result.summary_overhead_fraction))
    print("simulated time   %.1f s" % result.duration_seconds)
    if result.faults:
        print("messages lost    %d (%d to faults)" % (
            result.messages_lost, int(result.faults.get("messages_blocked", 0))))
    elif result.messages_lost:
        print("messages lost    %d" % result.messages_lost)
    if result.reliability:
        print("retransmits      %d (%d delivery failures)" % (
            result.retransmits, int(result.reliability.get("delivery_failures", 0))))
        print("failures seen    %d (%d recoveries)" % (
            result.failures_detected, int(result.reliability.get("recoveries", 0))))
    if result.recovery:
        print("checkpoints      %d (%d bytes durable)" % (
            int(result.recovery.get("checkpoints_taken", 0)),
            int(result.recovery.get("checkpoint_bytes", 0))))
        print("restarts         %d (%d arrivals replayed, %d clean / %d degraded rejoins)" % (
            int(result.recovery.get("restarts", 0)),
            int(result.recovery.get("tuples_replayed", 0)),
            int(result.recovery.get("rejoins_clean", 0)),
            int(result.recovery.get("rejoins_degraded", 0))))
        if result.recovery.get("rejoin_latency_mean_s"):
            print("rejoin latency   %.3f s mean, %.3f s max" % (
                result.recovery.get("rejoin_latency_mean_s", 0.0),
                result.recovery.get("rejoin_latency_max_s", 0.0)))
        if result.recovery.get("state_transfer_bytes"):
            print("state transfer   %d bytes (%d saved by deltas, %d fallbacks)" % (
                int(result.recovery.get("state_transfer_bytes", 0)),
                int(result.recovery.get("state_transfer_bytes_saved", 0)),
                int(result.recovery.get("state_transfer_fallbacks", 0))))
    if result.overload:
        print("overload shed    %d tuples, %d messages (%d at links)" % (
            int(result.overload.get("shed_tuples", 0)),
            int(result.overload.get("shed_messages", 0)),
            int(result.overload.get("link_messages_shed", 0))))
        print("degradation      %d transitions, %.2f s throttled, %.2f s shedding" % (
            int(result.overload.get("mode_transitions", 0)),
            result.overload.get("throttled_seconds", 0.0),
            result.overload.get("shedding_seconds", 0.0)))
    if result.telemetry:
        print("telemetry        %d events, %d samples, %d instruments" % (
            int(result.telemetry.get("events_emitted", 0)),
            int(result.telemetry.get("samples_taken", 0)),
            int(result.telemetry.get("instruments", 0))))
    for kind in sorted(export_paths):
        print("exported %-8s %s" % (kind, export_paths[kind]))
    if args.verbose:
        for node, diagnostics in sorted(result.node_diagnostics.items()):
            print("node %d:" % node)
            for key, value in sorted(diagnostics.items()):
                print("  %-28s %g" % (key, value))
    if profile_report:
        print()
        print(profile_report, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
