"""The distributed join system: configuration in, :class:`RunResult` out.

:class:`DistributedJoinSystem` assembles the full stack -- simulated WAN,
nodes, policies with shared hash state, workload generator, geographic
partitioner, ground-truth oracle -- schedules every tuple arrival, runs
the event loop to completion (all queues drained), and aggregates the
metrics of Section 6.
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.metrics.error import epsilon_error

from repro._rng import child, ensure_rng, spawn
from repro.config import SystemConfig, WorkloadConfig, WorkloadKind
from repro.core import health
from repro.core.node import JoinProcessingNode
from repro.core.policies import PolicyContext, make_policy, make_shared_state
from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.join.ground_truth import GroundTruthOracle
from repro.metrics.accounting import ResultCollector, replay_accounting
from repro.net.faults import FaultInjector
from repro.net.reliable import ReliableTransport
from repro.net.simulator import EventScheduler
from repro.net.topology import Network
from repro.recovery.checkpoint import CheckpointStore
from repro.streams.financial import FinancialStreamConfig, financial_stream
from repro.streams.generators import uniform_stream, zipf_stream
from repro.streams.network import NetworkTraceConfig, network_trace_stream
from repro.streams.partitioner import GeographicPartitioner, PartitionerConfig
from repro.streams.tuples import StreamId, StreamTuple, reset_tuple_ids
from repro.telemetry import TelemetryHub, build_manifest
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.events import Handles

SAMPLE_MARGIN_S = 5.0
"""Telemetry sampling horizon past the last scheduled arrival, so the
drain tail (in-flight messages, retransmits) stays visible."""


def build_key_stream(workload: WorkloadConfig, rng: np.random.Generator) -> Iterator[int]:
    """The joining-attribute generator for each Section 6 workload."""
    if workload.kind is WorkloadKind.UNIFORM:
        return uniform_stream(domain=workload.domain, rng=rng)
    if workload.kind is WorkloadKind.ZIPF:
        # Permuted ranks spread popularity across the key domain: every
        # node owns its *own* hot keys (balanced load, geographically
        # pinned attributes), the regime the paper calls "geographic skew
        # in the joining attributes".  Unpermuted, the hottest keys all
        # live in one node's range and load collapses onto that node.
        return zipf_stream(
            domain=workload.domain, alpha=workload.alpha, rng=rng, permute=True
        )
    if workload.kind is WorkloadKind.FINANCIAL:
        config = FinancialStreamConfig(
            initial_price=max(1, workload.domain // 2),
            min_price=1,
            max_price=workload.domain,
            tick_std=max(2.0, workload.domain / 4096.0),
        )
        return financial_stream(config, rng=rng)
    if workload.kind is WorkloadKind.NETWORK:
        config = NetworkTraceConfig(
            domain=workload.domain,
            heavy_flows=min(256, max(8, workload.domain // 64)),
        )
        return network_trace_stream(config, rng=rng)
    raise ConfigurationError("unknown workload kind %r" % workload.kind)


class DistributedJoinSystem:
    """End-to-end assembly and execution of one experiment run."""

    def __init__(self, config: SystemConfig, profiler=None) -> None:
        config.validate()
        reset_tuple_ids()
        self.config = config
        self.profiler = profiler
        """Optional recorder with ``section(name)``, a context manager,
        and ``snapshot()``: every node service runs in a ``node.<kind>``
        section and the run in ``system.run``; the snapshot becomes
        ``RunResult.profile``.  ``benchmarks/e2e`` passes its span
        recorder here."""
        root_rng = ensure_rng(config.seed)
        (
            self._workload_rng,
            self._partitioner_rng,
            self._network_rng,
            self._shared_rng,
            policy_parent_rng,
            self._schedule_rng,
        ) = spawn(root_rng, 6)
        # Extra generators are spawned only when their feature is on:
        # SeedSequence children are positional, so the six above stay
        # identical either way and a disabled feature causes zero drift.
        transport_rngs = (
            spawn(root_rng, config.num_nodes) if config.reliability.enabled else []
        )
        self.scheduler = EventScheduler()
        self.telemetry: Optional[TelemetryHub] = None
        self.dashboard = None
        if config.telemetry.enabled:
            self.telemetry = TelemetryHub(
                config.telemetry, clock=lambda: self.scheduler.now
            )
            self.scheduler.telemetry = self.telemetry
            # The sampling tick keeps the instruments it fetched, as the
            # hub does: each still made by its first use, in tick order.
            gauge = self.telemetry.registry.gauge
            counter = self.telemetry.registry.counter
            self._gauges = Handles(gauge)
            self._node_gauges = Handles(lambda key: gauge(key[0], node=key[1]))
            self._link_gauges = Handles(
                lambda link: gauge(
                    "repro_link_backlog_seconds", src=link[0], dst=link[1]
                )
            )
            self._traffic_counters = Handles(
                lambda key: counter(key[0], **dict(key[1:]))
            )
            self.telemetry.add_sampler(self._sample_telemetry)
            if config.telemetry.dashboard:
                from repro.telemetry import AsciiDashboard

                self.dashboard = AsciiDashboard(self)
                self.telemetry.add_sampler(self.dashboard.on_sample)
        self.fault_injector: Optional[FaultInjector] = None
        if not config.faults.empty:
            self.fault_injector = FaultInjector(config.faults, config.num_nodes)
            self.fault_injector.install(self.scheduler)
        self.checkpoint_store: Optional[CheckpointStore] = None
        if config.recovery.enabled:
            self.checkpoint_store = CheckpointStore()
        self.network = Network(
            self.scheduler,
            config.num_nodes,
            spec=config.link,
            rng=self._network_rng,
            fault_injector=self.fault_injector,
        )
        if config.overload.enabled and config.overload.link_backlog_bound_s > 0.0:
            # Wired before any link exists, so every lazily-created link
            # picks the bound up; overload-off runs never touch it and
            # links keep the unbounded legacy backlog.
            self.network.link_backlog_bound_s = config.overload.link_backlog_bound_s
        if self.telemetry is not None:
            self.network.attach_telemetry(self.telemetry)
        self.oracle = GroundTruthOracle()
        self.collector = ResultCollector()
        self.partitioner = GeographicPartitioner(
            PartitionerConfig(
                num_nodes=config.num_nodes,
                domain=config.workload.domain,
                skew=config.workload.skew,
            ),
            rng=self._partitioner_rng,
        )
        shared_state = make_shared_state(
            config.policy, config.window_size, rng=child(self._shared_rng)
        )
        policy_rngs = spawn(policy_parent_rng, config.num_nodes)
        self.nodes: List[JoinProcessingNode] = []
        all_ids = tuple(range(config.num_nodes))
        for node_id in all_ids:
            context = PolicyContext(
                node_id=node_id,
                peer_ids=tuple(p for p in all_ids if p != node_id),
                window_size=config.window_size,
                domain=config.workload.domain,
                config=config.policy,
                rng=policy_rngs[node_id],
            )
            policy = make_policy(context, shared_state)
            if self.telemetry is not None:
                policy.attach_telemetry(self.telemetry)
            transport = None
            if config.reliability.enabled:
                transport = ReliableTransport(
                    node_id=node_id,
                    scheduler=self.scheduler,
                    send_fn=self.network.send,
                    settings=config.reliability,
                    rng=transport_rngs[node_id],
                )
            node = JoinProcessingNode(
                node_id=node_id,
                config=config,
                scheduler=self.scheduler,
                network=self.network,
                policy=policy,
                transport=transport,
                fault_injector=self.fault_injector,
                profiler=profiler,
                telemetry=self.telemetry,
                recovery=config.recovery,
                checkpoint_store=self.checkpoint_store,
            )
            self.network.register(node_id, node)
            self.nodes.append(node)
        self._tuples_scheduled = 0
        self._arrival_span = 0.0
        if self.checkpoint_store is not None:
            # A t=0 baseline checkpoint per node: a crash before the first
            # periodic tick must restore *something*, and an empty-state
            # snapshot is the honest something.
            for node in self.nodes:
                node.take_checkpoint()
            self._schedule_recovery_hooks()

    # ------------------------------------------------------------------
    # workload scheduling
    # ------------------------------------------------------------------

    def disseminate_query(self) -> None:
        """Broadcast the join query to every node (Section 3).

        The paper's queries reach all nodes holding relevant stream
        segments before processing starts; one CONTROL message per peer
        models that handshake (and is what seeds the shared summary hash
        state conceptually -- the actual shared objects are built in the
        constructor).
        """
        from repro.net.message import Message, MessageKind

        origin = self.nodes[0]
        for destination in range(1, self.config.num_nodes):
            message = Message(
                kind=MessageKind.CONTROL,
                source=0,
                payload=(None, ()),
            )
            if origin.transport is not None:
                origin.transport.send(message, destination)
            else:
                self.network.send(message, destination)

    def schedule_workload(self) -> None:
        """Hand every arrival to its node up front (Poisson arrivals, fair
        R/S interleave, geographically-skewed node placement).

        A node whose every input waits in its inbox also serves its
        backlog ahead of the clock (see :mod:`repro.core.service`)."""
        for node in self.nodes:
            node.service.runs_ahead = node.service.uses_inbox
        self.disseminate_query()
        workload = self.config.workload
        count = workload.total_tuples
        keys = build_key_stream(workload, child(self._workload_rng))
        schedule_rng = child(self._schedule_rng)
        times = np.cumsum(
            schedule_rng.exponential(1.0 / workload.arrival_rate, size=count)
        )
        key_batch = list(itertools.islice(keys, count))
        nodes = self.partitioner.assign(key_batch)
        streams = schedule_rng.random(count) < 0.5
        for index in range(count):
            origin = int(nodes[index])
            item = StreamTuple(
                stream=StreamId.R if streams[index] else StreamId.S,
                key=int(key_batch[index]),
                origin_node=origin,
                arrival_index=index,
            )
            self.nodes[origin].schedule_local_arrival(float(times[index]), item)
        self._tuples_scheduled = count
        self._arrival_span = float(times[-1])
        self._schedule_heartbeats()
        self._schedule_checkpoints()
        self._schedule_telemetry_sampling()

    def _schedule_recovery_hooks(self) -> None:
        """Schedule crash/restart edges for every restartable fault event.

        These run *after* the injector's own activate/deactivate edges at
        the same timestamps (the injector installed first, and ties break
        by insertion order), so at restart time ``node_down`` is already
        false when
        :meth:`~repro.recovery.coordinator.RecoveryCoordinator.on_restart`
        fires.
        """
        if self.fault_injector is None:
            return
        for event in self.config.faults.events:
            if not event.restartable:
                continue
            for target in sorted(set(event.nodes)):
                recovery = self.nodes[target].recovery
                self.scheduler.schedule_at(event.start_s, recovery.on_crash)
                self.scheduler.schedule_at(event.end_s, recovery.on_restart)

    def _schedule_checkpoints(self) -> None:
        """Pre-schedule every checkpoint tick over the run's span.

        Same finite-event-set pattern as the heartbeats: a fixed tick
        series keeps the scheduler's run-to-drain termination intact.
        Nodes skip ticks while down or mid-recovery.
        """
        if self.checkpoint_store is None:
            return
        interval = self.config.recovery.checkpoint_interval_s
        count = int(self._arrival_span / interval) + 1
        for index in range(1, count + 1):
            when = index * interval
            for node in self.nodes:
                self.scheduler.schedule_at(when, lambda n=node: n.take_checkpoint())

    def _schedule_heartbeats(self) -> None:
        """Pre-schedule every heartbeat tick over the run's span.

        The ticks run from one interval past zero to one suspect-timeout
        past the last arrival (so peers that crashed near the end still
        get detected), and are *not* self-rescheduling -- a fixed, finite
        event set keeps the scheduler's run-to-drain termination intact.
        """
        if not self.config.reliability.enabled:
            return
        horizon = self._arrival_span + health.SUSPECT_TIMEOUT_S
        tick = health.HEARTBEAT_INTERVAL_S
        count = int(horizon / tick) + 1
        for index in range(1, count + 1):
            when = index * tick
            for node in self.nodes:
                self.scheduler.schedule_at(when, lambda n=node: n.send_heartbeats())

    def _schedule_telemetry_sampling(self) -> None:
        """Pre-schedule every registry sampling tick over the run's span.

        Like the heartbeats, the tick set is fixed and finite (not
        self-rescheduling), so the scheduler's run-to-drain termination
        is preserved.  The horizon extends ``SAMPLE_MARGIN_S`` past the
        last arrival to keep the drain tail visible.  On a span whose
        ticks would overflow the series rings, the interval stretches by
        the smallest integer factor that makes the rings cover the whole
        span instead of just its tail.
        """
        if self.telemetry is None:
            return
        horizon = self._arrival_span + SAMPLE_MARGIN_S
        interval = self.config.telemetry.sample_interval_s
        capacity = telemetry_registry.SERIES_CAPACITY
        if capacity > 2:
            # Scheduled ticks plus the end-of-run tick; only stretch when
            # the span genuinely overflows the rings, so short runs keep
            # their exact tick set.  The -2 headroom absorbs both the
            # final tick and int() truncation at the boundary.
            projected = int(horizon / interval) + 2
            if projected > capacity:
                stretch = math.ceil(horizon / (interval * (capacity - 2)))
                interval *= max(1, stretch)
        count = int(horizon / interval) + 1
        for index in range(1, count + 1):
            self.scheduler.schedule_at(
                index * interval, self.telemetry.sample_tick, material=False
            )

    def _sample_telemetry(self, now: float, registry) -> None:
        """Read live system state into registry instruments (one tick).

        Pure reads: sampling must not consume RNG draws or mutate any
        component, so an instrumented run stays result-identical to a
        dark one.
        """
        gauges, node_gauges = self._gauges, self._node_gauges
        gauges["repro_sched_events_processed"].set(self.scheduler.events_processed)
        gauges["repro_sched_pending_events"].set(self.scheduler.pending)
        for node in self.nodes:
            node_id = node.node_id
            node_gauges["repro_node_queue_depth", node_id].set(node.service.queue_depth)
            node_gauges["repro_node_tuples_processed", node_id].set(
                node.tuples_processed
            )
            node_gauges["repro_node_remote_tuples", node_id].set(
                node.remote_tuples_processed
            )
            node_gauges["repro_node_busy_seconds", node_id].set(node.busy_seconds)
            if node.degradation_ladder is not None:
                # Overload-only series: registered lazily so a dark run's
                # registry (and its export) is byte-identical to pre-overload.
                node_gauges["repro_node_shed_tuples", node_id].set(node.shed_tuples)
        # TrafficStats stays the always-on accumulator; each tick
        # snapshots its cumulative counters into registry series.
        for name, labels, value in self.network.stats.iter_counters():
            self._traffic_counters[(name, *labels.items())].value = value
        for link_key, link in self.network.iter_links():
            self._link_gauges[link_key].set(link.queue_depth_seconds())

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Drain the event queue, then aggregate metrics.

        The workload is scheduled here unless the caller already did
        (``benchmarks/e2e`` schedules and steps the scheduler itself and
        calls this to collect)."""
        section = (
            self.profiler.section("system.run")
            if self.profiler is not None
            else nullcontext()
        )
        with section:
            if self._tuples_scheduled == 0:
                self.schedule_workload()
            self.scheduler.run()
        return self._collect()

    def _replay_accounting(self) -> None:
        """Apply the nodes' deferred accounting ops to the oracle and
        collector.

        Nodes log (rather than apply) every oracle/collector mutation so
        the accuracy numbers are a pure function of per-node histories --
        see :func:`repro.metrics.accounting.replay_accounting`.  Replay is
        idempotent per run because each node's log is drained once."""
        ops = []
        for node in self.nodes:
            ops.extend(node.accounting_ops)
            node.accounting_ops = []
        replay_accounting(ops, self.oracle, self.collector)

    def _collect(self) -> RunResult:
        if self.telemetry is not None:
            # One final tick so the series capture the drained end state.
            self.telemetry.sample_tick()
        diagnostics = [node.diagnostics() for node in self.nodes]

        def total(key: str) -> float:
            """One per-node diagnostics counter summed in node order (plain
            ``+=``: the builtin ``sum`` compensates floats on newer Pythons)."""
            value = 0.0
            for counters in diagnostics:
                value += counters[key]
            return value

        self._replay_accounting()
        oracle, collector = self.oracle, self.collector
        stats = self.network.stats
        series = collector.throughput.series()
        sustained = collector.throughput.sustained_rate()
        # The multi-query breakdown's one entry: it is part of every
        # result digest, so it stays until the next digest re-pin.
        per_query = [
            {
                "query_id": 0.0,
                "truth_pairs": float(oracle.total_result_pairs),
                "reported_pairs": float(collector.reported_pairs),
                "epsilon": epsilon_error(
                    oracle.total_result_pairs, collector.reported_pairs
                ),
            }
        ]
        reliability: Dict[str, float] = {}
        if self.config.reliability.enabled:
            for node, counters in zip(self.nodes, diagnostics):
                for key, value in node.transport.counters().items():
                    reliability[key] = reliability.get(key, 0.0) + value
                for key, value in node.health.counters().items():
                    if key.endswith("_max_s"):
                        reliability[key] = max(reliability.get(key, 0.0), value)
                    elif key.endswith("_mean_s"):
                        # Averaged over nodes that measured any recoveries.
                        reliability.setdefault("_mean_samples", 0.0)
                        reliability["_mean_samples"] += 1.0
                        reliability[key] = reliability.get(key, 0.0) + value
                    else:
                        reliability[key] = reliability.get(key, 0.0) + value
                for key in ("forced_broadcast_sends", "suppressed_sends", "resyncs"):
                    reliability[key] = reliability.get(key, 0.0) + counters[key]
            samples = reliability.pop("_mean_samples", 0.0)
            if samples and "recovery_latency_mean_s" in reliability:
                reliability["recovery_latency_mean_s"] /= samples
        faults: Dict[str, float] = {}
        if self.fault_injector is not None:
            faults = self.fault_injector.summary()
            faults["local_arrivals_dropped"] = total("local_arrivals_dropped")
        recovery: Dict[str, float] = {}
        if self.checkpoint_store is not None:
            for key in (
                "checkpoints_taken",
                "checkpoint_bytes",
                "restarts",
                "tuples_logged",
                "tuples_replayed",
                "replay_dropped",
                "state_transfer_bytes",
                "state_transfer_delta_bytes",
                "state_transfer_full_bytes",
                "state_transfer_bytes_saved",
                "state_transfer_fallbacks",
            ):
                recovery[key] = total(key)
            rejoin_latencies: List[float] = []
            clean = degraded = 0
            for node in self.nodes:
                rejoin = node.recovery.rejoin_record()
                rejoin_latencies.extend(rejoin["latencies"])
                for trigger in rejoin["triggers"]:
                    if trigger == "synced":
                        clean += 1
                    elif trigger == "timeout":
                        degraded += 1
            recovery["rejoins_clean"] = float(clean)
            recovery["rejoins_degraded"] = float(degraded)
            if rejoin_latencies:
                recovery["rejoin_latency_mean_s"] = sum(rejoin_latencies) / len(
                    rejoin_latencies
                )
                recovery["rejoin_latency_max_s"] = max(rejoin_latencies)
            recovery["dead_letters"] = reliability.get("delivery_failures", 0.0)
        overload: Dict[str, float] = {}
        if self.config.overload.enabled:
            overload = {
                "shed_tuples": total("shed_tuples"),
                "shed_messages": total("shed_messages"),
                "suppressed_flushes": total("suppressed_flushes"),
                "link_messages_shed": float(self.network.total_messages_shed()),
                "mode_transitions": total("overload_transitions"),
                "throttled_seconds": total("overload_throttled_seconds"),
                "shedding_seconds": total("overload_shedding_seconds"),
            }
        return RunResult(
            config=self.config.as_dict(),
            truth_pairs=oracle.total_result_pairs,
            reported_pairs=collector.reported_pairs,
            duplicate_reports=collector.duplicates,
            spurious_reports=collector.spurious,
            tuples_arrived=oracle.tuples_observed,
            duration_seconds=self.scheduler.material_now,
            arrival_span_seconds=self._arrival_span,
            traffic=stats.as_dict(),
            messages_by_kind=dict(stats.messages_by_kind),
            node_diagnostics={
                node.node_id: counters
                for node, counters in zip(self.nodes, diagnostics)
            },
            throughput_series=series,
            sustained_throughput=sustained,
            per_query=per_query,
            latency=collector.latency.snapshot(),
            reliability=reliability,
            faults=faults,
            recovery=recovery,
            overload=overload,
            profile=self.profiler.snapshot() if self.profiler is not None else {},
            manifest=build_manifest(self.config),
            telemetry=self.telemetry.summary() if self.telemetry is not None else {},
        )


def run_experiment(config: SystemConfig, profiler=None) -> RunResult:
    """One-call convenience: build, run, and return the result."""
    return DistributedJoinSystem(config, profiler=profiler).run()
