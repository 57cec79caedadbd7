"""At full budget DFT and round robin *are* BASE: the same pairs, exactly.

With the flow budget at T = N - 1 the budget covers every peer, so each
tuple reaches every node, as under BASE (Section 4's broadcast), and the
reported pairs must be BASE's pair *set*, not only its count.  The cells
are small and lightly loaded (1,500 tuples at 60/s, W = 64, kappa = 4,
N in {4, 6}, ZIPF and UNI keys, seeds 1-3), where no backlog outlives a
window.

A time window adds a timing question a count window does not have:
DFT's summary messages change when tuples reach a peer, and a partner
can expire in the gap.  The time cells use the span in which a node
receives W arrivals (``W * N / rate``); the measured exception on a
span of W / rate is pinned below as a strict xfail.
"""

import pytest

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

WINDOW = 64
RATE = 60.0
TUPLES = 1_500


def reported_pairs(algorithm, num_nodes, keys, seed, window_seconds=None):
    """The run's reported ``(r.tuple_id, s.tuple_id)`` set (tuple ids
    restart at 0 in every system, so runs of one workload compare)."""
    shape = (
        {}
        if window_seconds is None
        else {"window_kind": WindowKind.TIME, "window_seconds": window_seconds}
    )
    config = SystemConfig(
        num_nodes=num_nodes,
        window_size=WINDOW,
        policy=PolicyConfig(
            algorithm=algorithm,
            kappa=4.0,
            flow=FlowSettings(budget_override=float(num_nodes - 1)),
        ),
        workload=WorkloadConfig(kind=keys, total_tuples=TUPLES, arrival_rate=RATE),
        seed=seed,
        **shape,
    )
    system = DistributedJoinSystem(config)
    system.run()
    return set(system.collector._pairs)


def differences(num_nodes, keys, seed, window_seconds=None):
    """Per algorithm: (pairs BASE reported that it missed, pairs it
    reported that BASE did not)."""
    base = reported_pairs(Algorithm.BASE, num_nodes, keys, seed, window_seconds)
    assert base
    found = {}
    for algorithm in (Algorithm.DFT, Algorithm.ROUND_ROBIN):
        pairs = reported_pairs(algorithm, num_nodes, keys, seed, window_seconds)
        found[algorithm.value] = (len(base - pairs), len(pairs - base))
    return found


CELLS = [
    pytest.param(num_nodes, keys, seed, id="N=%d-%s-seed%d" % (num_nodes, keys.value, seed))
    for num_nodes in (4, 6)
    for keys in (WorkloadKind.ZIPF, WorkloadKind.UNIFORM)
    for seed in (1, 2, 3)
]


@pytest.mark.parametrize("num_nodes, keys, seed", CELLS)
def test_full_budget_reports_base_pairs_on_count_windows(num_nodes, keys, seed):
    assert differences(num_nodes, keys, seed) == {"DFT": (0, 0), "RR": (0, 0)}


@pytest.mark.parametrize("num_nodes, keys, seed", CELLS)
def test_full_budget_reports_base_pairs_on_time_windows(num_nodes, keys, seed):
    span = WINDOW * num_nodes / RATE
    assert differences(num_nodes, keys, seed, span) == {"DFT": (0, 0), "RR": (0, 0)}


@pytest.mark.xfail(
    strict=True,
    reason="on a W / rate span (1.07 s) DFT reports one pair BASE does not "
    "(BASE itself reports 7 of 9 true pairs): its summary messages move "
    "arrival times across the window's edge",
)
def test_full_budget_reports_base_pairs_on_a_narrow_time_window():
    found = differences(4, WorkloadKind.ZIPF, 3, WINDOW / RATE)
    assert found == {"DFT": (0, 0), "RR": (0, 0)}
