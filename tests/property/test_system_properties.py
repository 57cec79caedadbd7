"""Property-based end-to-end invariants over random configurations.

Each example builds and runs a tiny but complete system.  Whatever the
algorithm, workload, or topology, these must hold:

* |Psi_hat| <= |Psi| (MAX-subset semantics; spurious results excluded);
* every scheduled tuple is eventually processed (queues drain);
* message conservation: the exact BASE tuple count is (N-1) per arrival;
* determinism: the run is a pure function of its configuration.

The optional paths join in: reliable links, recovery with a restartable
crash, overload protection with a small queue bound, adaptive flow
budgets, and count or time windows.  Through all of them, after the
accounting replay:

* epsilon stays in [0, 1] and no reported pair is outside the truth;
* per message kind, every message the network sent was delivered or
  lost at drain (losses include the link backlog's sheds);
* two runs of one configuration pickle to the same bytes;
* every node's policy, restored onto a freshly built twin, checkpoints
  to the bytes it checkpointed itself.

:class:`~repro.core.results.RunResult` cannot state the conservation
law by itself: it reports messages sent per kind (``messages_by_kind``),
but not deliveries per kind, losses per kind or link sheds per kind, so
the check reads the network's tallies and counts deliveries at the
network's delivery hook.
"""

import json
import pickle
from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WindowKind,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.flow import FlowSettings
from repro.core.system import DistributedJoinSystem, run_experiment
from repro.net.faults import FaultPlan
from repro.net.reliable import ReliabilitySettings
from repro.net.topology import Network
from repro.overload import OverloadSettings
from repro.recovery import RecoverySettings
from repro.recovery.checkpoint import canonical_json

configs = st.builds(
    lambda algorithm, nodes, window, kind, seed: SystemConfig(
        num_nodes=nodes,
        window_size=window,
        policy=PolicyConfig(algorithm=algorithm, kappa=4.0),
        workload=WorkloadConfig(
            kind=kind, total_tuples=400, domain=256, arrival_rate=200.0
        ),
        seed=seed,
    ),
    algorithm=st.sampled_from(list(Algorithm)),
    nodes=st.integers(min_value=2, max_value=5),
    window=st.sampled_from([16, 48, 96]),
    kind=st.sampled_from(list(WorkloadKind)),
    seed=st.integers(min_value=0, max_value=10_000),
)

RESTART = "crash@t=0.6,d=0.5,node=1,downtime=0.5"


def chaos_config(
    algorithm, nodes, kind, seed, reliable, recovery, overload, adaptive, timed
):
    extra = {}
    if reliable or recovery:
        extra["reliability"] = ReliabilitySettings(enabled=True)
    if recovery:
        extra["recovery"] = RecoverySettings(enabled=True, checkpoint_interval_s=0.25)
        extra["faults"] = FaultPlan.parse(RESTART, num_nodes=nodes)
    if overload:
        extra["overload"] = OverloadSettings.for_queue_bound(16)
    if timed:
        extra["window_kind"] = WindowKind.TIME
        extra["window_seconds"] = 0.3
    flow = FlowSettings(adaptive=adaptive, congestion_low=2, congestion_high=12)
    return SystemConfig(
        num_nodes=nodes,
        window_size=32,
        policy=PolicyConfig(algorithm=algorithm, kappa=4.0, flow=flow),
        workload=WorkloadConfig(
            kind=kind, total_tuples=300, domain=256, arrival_rate=300.0
        ),
        seed=seed,
        **extra,
    )


chaos_configs = st.builds(
    chaos_config,
    algorithm=st.sampled_from(list(Algorithm)),
    nodes=st.integers(min_value=2, max_value=4),
    kind=st.sampled_from(list(WorkloadKind)),
    seed=st.integers(min_value=0, max_value=10_000),
    reliable=st.booleans(),
    recovery=st.booleans(),
    overload=st.booleans(),
    adaptive=st.booleans(),
    timed=st.booleans(),
)


@given(configs)
@settings(max_examples=15, deadline=None)
def test_run_invariants(config):
    result = run_experiment(config)
    assert result.tuples_arrived == 400
    assert 0 <= result.reported_pairs <= result.truth_pairs
    assert 0.0 <= result.epsilon <= 1.0
    assert result.duration_seconds >= result.arrival_span_seconds
    assert result.traffic["total_bytes"] >= 0
    per_node_processed = sum(
        d["tuples_processed"] for d in result.node_diagnostics.values()
    )
    assert per_node_processed == 400


def counted_run(config):
    """The drained system, its result, and its deliveries per kind.

    Every input runs as its own event (no node inbox), so each delivery
    passes the network's delivery hook; the inbox changes no result
    (``tests/property/test_held_delivery_equivalence.py``)."""
    delivered = Counter()
    record_delivery = Network._record_delivery

    def counted_delivery(self, message, destination):
        delivered[message.kind_name] += 1
        return record_delivery(self, message, destination)

    with mock.patch.object(Network, "_record_delivery", counted_delivery):
        system = DistributedJoinSystem(config)
        for node in system.nodes:
            node.service.uses_inbox = False
        result = system.run()
    return system, result, delivered


@given(chaos_configs)
@settings(max_examples=30, deadline=None)
def test_invariants_hold_through_every_optional_path(config):
    result = run_experiment(config)
    assert 0 <= result.reported_pairs <= result.truth_pairs
    assert 0.0 <= result.epsilon <= 1.0
    if config.recovery.enabled:
        assert result.recovery["restarts"] >= 1
    assert pickle.dumps(run_experiment(config)) == pickle.dumps(result)

    system, counted, delivered = counted_run(config)
    assert counted.messages_by_kind == result.messages_by_kind
    stats = system.network.stats
    assert Counter(result.messages_by_kind) == delivered + stats.lost_by_kind

    twins = DistributedJoinSystem(config)
    for node, twin in zip(system.nodes, twins.nodes):
        text = canonical_json(node.policy.checkpoint_state())
        twin.policy.restore_state(json.loads(text))
        assert canonical_json(twin.policy.checkpoint_state()) == text


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=8, deadline=None)
def test_base_message_conservation(seed):
    config = SystemConfig(
        num_nodes=3,
        window_size=32,
        policy=PolicyConfig(algorithm=Algorithm.BASE),
        workload=WorkloadConfig(total_tuples=300, domain=128, arrival_rate=100.0),
        seed=seed,
    )
    result = run_experiment(config)
    assert result.messages_by_kind.get("tuple", 0) == 300 * 2
    assert result.epsilon < 0.05


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=5, deadline=None)
def test_runs_are_deterministic(seed):
    config = SystemConfig(
        num_nodes=3,
        window_size=32,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=4.0),
        workload=WorkloadConfig(total_tuples=300, domain=128, arrival_rate=100.0),
        seed=seed,
    )
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.reported_pairs == second.reported_pairs
    assert first.truth_pairs == second.truth_pairs
    assert first.messages_by_kind == second.messages_by_kind
