"""Round robin on uniform keys finds the share of pairs the two-way
coverage law predicts.

With no key skew (``skew=0``, uniform keys) every node holds 1/N of each
stream and the matches of a tuple are spread evenly over the N nodes.
Round robin forwards each tuple to T of the N - 1 peers, so a given peer
receives it with probability p = T / (N - 1).  Discovery is two-way: a
node keeps every forwarded copy in a shadow window and probes it with
its later local arrivals, so a cross-node pair is found if either member
reaches the other's node, with probability 1 - (1 - p)^2.  Same-node
pairs (1/N of them) are always found, hence

    epsilon = 1 - 1/N - (N - 1)/N * (1 - (1 - p)^2)

(derived in ``docs/protocol.md``).  Theorems 1-2 count one direction
only (epsilon = 1 - (1 + T)/N), so they bound the measurement from
above.  The expected value comes from this closed form, not from the
repository's own oracle.

The law holds only below saturation: a backlog longer than a window lets
a probe find its partner already expired.  Each cell here runs at 150
tuples/s, where the busiest node's work stays under 0.6 of the arrival
span; at the default 400/s the N = 4, T = 2 cell runs at 1.41 and reads
epsilon 0.166 against the law's 0.083.
"""

import math
import statistics

import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.bounds import Budget, uniform_error_bound
from repro.core.flow import FlowSettings
from repro.core.system import run_experiment

SEEDS = (1, 2, 3)
TOLERANCE = 0.02
MAX_LOAD = 0.6


def two_way_law(num_nodes, budget):
    p = budget / (num_nodes - 1)
    return 1.0 - 1.0 / num_nodes - (num_nodes - 1) / num_nodes * (1.0 - (1.0 - p) ** 2)


def run_cell(num_nodes, budget, seed):
    """One run; its epsilon and its load: the busiest node's busy seconds
    over the arrival span."""
    config = SystemConfig(
        num_nodes=num_nodes,
        window_size=128,
        policy=PolicyConfig(
            algorithm=Algorithm.ROUND_ROBIN,
            flow=FlowSettings(budget_override=float(budget)),
        ),
        workload=WorkloadConfig(
            kind=WorkloadKind.UNIFORM,
            total_tuples=1000 * num_nodes,
            arrival_rate=150.0,
            skew=0.0,
        ),
        seed=seed,
    )
    result = run_experiment(config)
    busiest = max(
        counters["busy_seconds"] for counters in result.node_diagnostics.values()
    )
    return result.epsilon, busiest / result.arrival_span_seconds


@pytest.mark.parametrize("num_nodes", [4, 8])
@pytest.mark.parametrize(
    "regime", [Budget.CONSTANT, Budget.LOGARITHMIC], ids=["T=1", "T=log2N"]
)
def test_round_robin_at_no_skew_follows_the_two_way_law(num_nodes, regime):
    budget = 1 if regime is Budget.CONSTANT else int(math.log2(num_nodes))
    runs = [run_cell(num_nodes, budget, seed) for seed in SEEDS]
    assert all(load < MAX_LOAD for _, load in runs), runs
    epsilon = statistics.median(epsilon for epsilon, _ in runs)
    assert epsilon == pytest.approx(two_way_law(num_nodes, budget), abs=TOLERANCE)
    assert epsilon < uniform_error_bound(num_nodes, regime)
