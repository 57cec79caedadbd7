"""Surviving a partition, a crash, and a loss burst in one run.

A four-node deployment is hit by three overlapping faults: nodes 0+1
are partitioned away for three seconds, node 2 crashes and restarts,
and the whole mesh then suffers a 40 % loss burst.  With the reliable
control plane enabled (ARQ + heartbeat failure detection +
resync-on-recovery) the run reports *what happened* -- detections,
recovery latencies, resyncs -- and re-baselines every returning peer,
so the error degradation stays bounded instead of compounding as peers
keep filtering on poisoned summaries.

Run:  python examples/chaos_run.py
"""

from repro import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.system import DistributedJoinSystem
from repro.net.faults import FaultPlan
from repro.net.link import LinkSpec
from repro.net.reliable import ReliabilitySettings

PLAN = "partition@t=2,d=3,nodes=0+1; crash@t=8,d=2,node=2; loss@t=12,d=3,p=0.4"


def build_config(faults: FaultPlan, reliable: bool) -> SystemConfig:
    return SystemConfig(
        num_nodes=4,
        window_size=128,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=8),
        workload=WorkloadConfig(total_tuples=2_500, domain=1_024, arrival_rate=150.0),
        link=LinkSpec(),
        reliability=ReliabilitySettings(enabled=reliable),
        faults=faults,
        seed=7,
    )


def describe(label: str, result) -> None:
    print("%s:" % label)
    print("  epsilon            %.4f" % result.epsilon)
    print("  messages lost      %d" % result.messages_lost)
    if result.faults:
        print(
            "  blocked / dropped  %d in transit, %d local arrivals"
            % (
                result.faults.get("messages_blocked", 0),
                result.faults.get("local_arrivals_dropped", 0),
            )
        )
    if result.reliability:
        rel = result.reliability
        print(
            "  recovery           %d retransmits, %d failures detected,"
            " %d recoveries, %d resyncs"
            % (
                rel.get("retransmits", 0),
                rel.get("failures_detected", 0),
                rel.get("recoveries", 0),
                rel.get("resyncs", 0),
            )
        )
        if "recovery_latency_mean_s" in rel:
            print(
                "  detection latency  %.2fs mean, %.2fs max"
                % (rel["recovery_latency_mean_s"], rel["recovery_latency_max_s"])
            )
    print()


def main() -> None:
    print("Chaos plan: %s\n" % PLAN)
    plan = FaultPlan.parse(PLAN, num_nodes=4)

    baseline = DistributedJoinSystem(build_config(FaultPlan(), reliable=False)).run()
    describe("fault-free baseline", baseline)

    best_effort = DistributedJoinSystem(build_config(plan, reliable=False)).run()
    describe("faults, best-effort wire", best_effort)

    recovered = DistributedJoinSystem(build_config(plan, reliable=True)).run()
    describe("faults, reliable control plane", recovered)

    print(
        "Degradation vs baseline: %.4f best-effort, %.4f with recovery"
        % (
            best_effort.epsilon - baseline.epsilon,
            recovered.epsilon - baseline.epsilon,
        )
    )


if __name__ == "__main__":
    main()
