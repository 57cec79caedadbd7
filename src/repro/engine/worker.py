"""The sharded engine's worker process.

Each worker owns the simulated nodes with ``node_id % shards == shard``
and replays *exactly* their serial history:

1. **Replicated construction.**  The worker builds the full
   :class:`~repro.core.system.DistributedJoinSystem` from the config and
   schedules the complete workload, exactly as serial would.  Every
   RNG draw made during construction therefore matches serial bit for
   bit on every shard, and construction-time sends (query dissemination)
   schedule their arrivals locally everywhere.
2. **Pruning.**  The event queue is then cut down to this shard's home
   events plus the run-global ones (telemetry ticks, fault edges),
   which every shard replays.  Shards other than 0 also zero the
   replicated accounting (traffic stats, telemetry ring, registry) so
   merged totals count everything exactly once.
3. **Routing.**  Every link gets a router that diverts arrivals bound
   for off-shard nodes into the round outbox as ``(arrival_time, key,
   (src, dst), message)``.  The event key was minted by the link's own
   :class:`~repro.net.simulator.EventKeySource`, so the destination
   shard can enqueue an event that sorts exactly where serial would
   have sorted it.
4. **Barrier rounds.**  The coordinator drives ``run_window`` rounds of
   width ``lookahead = latency_min_s`` (no message can arrive sooner
   than that after its send, so nothing within a round can originate
   within the same round -- the Chandy-Misra/Bryant conservative
   argument).

The final ``fragment`` message carries everything the parent needs to
reconstruct serial collection state: per-home-node runtime records,
traffic stats, telemetry ring + registry, fault counters, profiler.
"""

from __future__ import annotations

import os
import traceback
from functools import partial
from typing import Dict


def _sync_env(env: Dict[str, str]) -> None:
    """Mirror the parent's ``REPRO_*`` environment exactly (spawned
    children inherit the environment of process-creation time, which can
    predate parent-side changes such as monkeypatched knobs)."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        if key not in env:
            del os.environ[key]
    os.environ.update(env)


def shard_worker(conn, config, shard, shards, env, profile) -> None:
    """Process entry point (module-level so ``spawn`` can pickle it)."""
    try:
        _worker_loop(conn, config, shard, shards, env, profile)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            pass
    finally:
        conn.close()


def _worker_loop(conn, config, shard, shards, env, profile) -> None:
    _sync_env(env)
    from repro.core.system import DistributedJoinSystem
    from repro.net.stats import TrafficStats
    from repro.profiling import KernelProfiler

    profiler = KernelProfiler() if profile else None
    # shards=1 pins the worker itself to the serial engine (the outer
    # REPRO_SHARDS must not recurse into nested sharding).
    system = DistributedJoinSystem(config, profiler=profiler, shards=1)
    system.schedule_workload()
    scheduler = system.scheduler
    network = system.network

    def is_home(node_id: int) -> bool:
        return node_id % shards == shard

    outbox = []

    def router_for(source, destination):
        if is_home(destination):
            return None

        def divert(arrival, key, message, _pair=(source, destination)):
            outbox.append((arrival, key, _pair, message))
            return True

        return divert

    network.link_router_factory = router_for
    for (source, destination), link in network.iter_links():
        link.router = router_for(source, destination)
    network._shard_outbox = outbox
    system._home_filter = is_home
    scheduler.retain_events(
        lambda event: event.home is None or is_home(event.home)
    )
    if shard != 0:
        # Replicated construction accounting is shard 0's to keep; every
        # other shard zeroes it in place (instrument handles are cached
        # by the nodes, so objects must survive).
        scheduler.count_global_events = False
        network.stats = TrafficStats()
        network.kind_order.clear()
        network.loss_order.clear()
        for node_id in network.per_sender_stats:
            network.per_sender_stats[node_id] = TrafficStats()
        for _, link in network.iter_links():
            link.messages_sent = 0
            link.messages_lost = 0
            link.bytes_sent = 0
            link.bytes_lost = 0
            link.messages_shed = 0
        if system.telemetry is not None:
            hub = system.telemetry
            hub._events.clear()
            hub._sequence = 0
            hub.events_emitted = 0
            hub.registry.reset_values()

    conn.send(("ready", scheduler.next_event_time(), system._arrival_span))
    while True:
        tag, payload = conn.recv()
        if tag == "round":
            until, inbound = payload
            for arrival, key, (source, destination), message in inbound:
                scheduler.schedule_at(
                    arrival,
                    partial(network.link(source, destination)._arrive, message),
                    key=key,
                    home=destination,
                )
            scheduler.run_window(until)
            conn.send(
                (
                    "done",
                    list(outbox),
                    scheduler.next_event_time(),
                    scheduler.material_now,
                    scheduler.now,
                )
            )
            outbox.clear()
        elif tag == "finish":
            t_final = payload
            break
        else:  # pragma: no cover - protocol error
            raise RuntimeError("unknown coordinator message %r" % (tag,))

    # The global end-of-run tick: sampled against the *global* final
    # time so link backlogs and clocks read as serial's final tick does.
    scheduler._now = max(scheduler._now, t_final)
    if system.telemetry is not None:
        system.telemetry.sample_tick(now=t_final)
    conn.send(("fragment", _build_fragment(system, profiler, is_home)))


def _build_fragment(system, profiler, is_home) -> Dict[str, object]:
    scheduler = system.scheduler
    network = system.network
    fragment: Dict[str, object] = {
        "records": [
            node.runtime_record()
            for node in system.nodes
            if is_home(node.node_id)
        ],
        "stats": network.stats,
        "kind_order": dict(network.kind_order),
        "loss_order": dict(network.loss_order),
        "per_sender": network.per_sender_stats,
        "link_stats": network.link_stats(),
        "arrival_span": system._arrival_span,
        "material_now": scheduler.material_now,
        "now": scheduler.now,
        "events_processed": scheduler.events_processed,
        "faults": None,
        "telemetry": None,
        "profiler": profiler,
    }
    if system.fault_injector is not None:
        injector = system.fault_injector
        fragment["faults"] = {
            "messages_blocked": injector.messages_blocked,
            "activations": dict(injector.activations),
            "timeline": list(injector.timeline),
        }
    if system.telemetry is not None:
        hub = system.telemetry
        fragment["telemetry"] = {
            "events": list(hub._events),
            "events_emitted": hub.events_emitted,
            "registry": hub.registry,
        }
    return fragment
