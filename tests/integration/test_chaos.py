"""Chaos suite: every fault class, end to end, with the reliable transport on.

Each case runs the full 4-node system under a seeded fault plan and checks
the tentpole guarantees: the run completes with every queue drained, the
join error stays within a bounded distance of the fault-free baseline, the
recovery machinery actually fired (class-specific counters are nonzero),
and the whole thing is byte-deterministic for a fixed seed + plan.
"""

import pytest

from repro.config import Algorithm
from repro.core.system import DistributedJoinSystem
from repro.net.faults import FaultPlan
from repro.net.message import MessageKind
from repro.net.reliable import ReliabilitySettings

# Allowed epsilon degradation over the fault-free run of the same
# algorithm.  The plans below knock out a quarter to a half of the mesh
# for a few seconds of a ~12.5 s workload; empirically they cost < 0.1.
EPSILON_BOUND = 0.35

RELIABLE = ReliabilitySettings(enabled=True)

# kind -> (plan spec, counters that must be nonzero for that fault class)
FAULT_CASES = {
    "loss_burst": (
        "loss@t=3,d=5,p=0.6",
        # Random drops leave summaries stale -> forced broadcasts; the
        # drops themselves surface as blocked messages.
        ["faults:messages_blocked", "reliability:forced_broadcast_sends"],
    ),
    "link_outage": (
        # Sever every link touching node 1, both directions, past the
        # suspect timeout: peers must detect, degrade, and resync.
        "outage@t=3,d=3,link=1-0,link=1-2,link=1-3,link=0-1,link=2-1,link=3-1",
        [
            "faults:messages_blocked",
            "reliability:retransmits",
            "reliability:failures_detected",
            "reliability:recoveries",
            "reliability:resyncs",
        ],
    ),
    "partition": (
        "partition@t=3,d=3,nodes=0+1",
        [
            "faults:messages_blocked",
            "reliability:retransmits",
            "reliability:failures_detected",
            "reliability:recoveries",
            "reliability:resyncs",
        ],
    ),
    "latency_spike": (
        # Slower links delay but never destroy messages, so the control
        # plane keeps up without retransmitting; only the bound applies.
        "latency@t=3,d=4,extra=0.6",
        [],
    ),
    "node_crash": (
        "crash@t=3,d=3,node=2",
        [
            "faults:messages_blocked",
            "faults:local_arrivals_dropped",
            "reliability:failures_detected",
            "reliability:recoveries",
            "reliability:resyncs",
        ],
    ),
}

ALGORITHMS = [Algorithm.DFT, Algorithm.DFTT]

_baseline_cache = {}


def fault_free_epsilon(lossy_config, algorithm):
    if algorithm not in _baseline_cache:
        result = DistributedJoinSystem(
            lossy_config(algorithm, reliability=RELIABLE)
        ).run()
        _baseline_cache[algorithm] = result.epsilon
    return _baseline_cache[algorithm]


def run_chaos(lossy_config, algorithm, spec):
    config = lossy_config(
        algorithm,
        faults=FaultPlan.parse(spec, num_nodes=4),
        reliability=RELIABLE,
    )
    system = DistributedJoinSystem(config)
    result = system.run()
    return system, result


def counter(result, path):
    section, key = path.split(":")
    return getattr(result, section).get(key, 0.0)


class TestChaos:
    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.value)
    @pytest.mark.parametrize("fault", sorted(FAULT_CASES))
    def test_run_survives_fault(self, lossy_config, fault, algorithm):
        spec, must_fire = FAULT_CASES[fault]
        system, result = run_chaos(lossy_config, algorithm, spec)

        # Completion: the scheduler drained, nothing is stuck in a queue.
        assert all(node.service.queue_depth == 0 for node in system.nodes)
        assert result.truth_pairs > 0
        assert result.reported_pairs > 0

        # Bounded degradation over the fault-free run.
        baseline = fault_free_epsilon(lossy_config, algorithm)
        assert result.epsilon <= baseline + EPSILON_BOUND

        # The recovery machinery for this fault class actually engaged.
        for path in must_fire:
            assert counter(result, path) > 0, "%s stayed zero under %s" % (path, fault)

    def test_identical_seed_and_plan_reproduce_exactly(self, lossy_config):
        spec = FAULT_CASES["partition"][0]
        _, first = run_chaos(lossy_config, Algorithm.DFTT, spec)
        _, second = run_chaos(lossy_config, Algorithm.DFTT, spec)
        assert first.epsilon == second.epsilon
        assert first.truth_pairs == second.truth_pairs
        assert first.reported_pairs == second.reported_pairs
        assert first.traffic == second.traffic
        assert first.reliability == second.reliability
        assert first.faults == second.faults
        assert first.duration_seconds == second.duration_seconds

    def test_recovery_beats_no_recovery_under_partition(self, lossy_config):
        """The ARQ + resync machinery must earn its keep: under a partition
        the reliable run recovers state the best-effort run never gets back.
        """
        spec = FAULT_CASES["partition"][0]
        _, with_recovery = run_chaos(lossy_config, Algorithm.DFTT, spec)
        best_effort = DistributedJoinSystem(
            lossy_config(Algorithm.DFTT, faults=FaultPlan.parse(spec, num_nodes=4))
        ).run()
        assert with_recovery.reliability["resyncs"] > 0
        assert best_effort.reliability == {}
        # Not strictly ordered run-by-run, but recovery must never be
        # dramatically worse than doing nothing at all.
        assert with_recovery.epsilon <= best_effort.epsilon + 0.05

    def test_happy_path_is_untouched_without_opt_in(self, lossy_config):
        """Empty plan + reliability disabled: zero wire-protocol drift."""
        system = DistributedJoinSystem(lossy_config(Algorithm.DFTT))
        result = system.run()
        by_kind = system.network.stats.messages_by_kind
        assert by_kind[MessageKind.ACK.value] == 0
        assert by_kind[MessageKind.HEARTBEAT.value] == 0
        assert result.messages_lost == 0
        assert result.reliability == {}
        assert result.faults == {}
        assert result.retransmits == 0.0
        assert result.failures_detected == 0.0
