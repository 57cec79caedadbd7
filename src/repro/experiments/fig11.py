"""Figure 11: throughput vs system size at eps = 15%.

The paper offers each algorithm the same high-rate streams and measures
joining tuples reported per second.  BASE collapses first: its (N-1)
transmissions per tuple saturate the 90 kbps sender budget, so its nodes
spend almost all their service time paused on the emulated link.  DFTT,
transmitting the fewest messages at the fixed error level, sustains the
highest throughput.

Procedure per (N, algorithm): calibrate the budget to eps = 15% at a
moderate arrival rate, then re-run at a deliberately saturating rate and
report the sustained result rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import Algorithm, WorkloadKind
from repro.experiments.calibrate import budget_search
from repro.experiments.harness import FILTERED_ALGORITHMS, get_scale, system_config
from repro.experiments.reporting import format_table
from repro.parallel import Cell, RunCache, run_cells

TARGET_EPSILON = 0.15
SATURATION_FACTOR = 6.0
"""The throughput run offers this multiple of the calibration rate."""


@dataclass(frozen=True)
class Fig11Row:
    """One (N, algorithm) point of Figure 11."""

    num_nodes: int
    algorithm: str
    throughput: float
    sustained_throughput: float
    epsilon_at_calibration: float
    calibrated_budget: float


def run(
    scale: str = "default",
    workload: WorkloadKind = WorkloadKind.ZIPF,
    target_epsilon: float = TARGET_EPSILON,
    max_probes: int = 4,
    jobs: int = 0,
    cache: Optional[RunCache] = None,
) -> List[Fig11Row]:
    """Calibrated throughput comparison across the node grid."""
    preset = get_scale(scale)

    def cell(index: int, num_nodes: int, algorithm: Algorithm) -> Cell[Fig11Row]:
        """One point: calibrate, then the saturating rerun as the last run."""
        if algorithm is Algorithm.BASE:
            budget = float(num_nodes - 1)
            epsilon = 0.0
        else:
            calibration = yield from budget_search(
                lambda b: system_config(
                    preset,
                    algorithm,
                    num_nodes,
                    workload_kind=workload,
                    budget_override=b,
                    seed_offset=index,
                ),
                target_epsilon=target_epsilon,
                max_probes=max_probes,
            )
            budget = calibration.budget
            epsilon = calibration.achieved_epsilon
        result = yield system_config(
            preset,
            algorithm,
            num_nodes,
            workload_kind=workload,
            budget_override=budget if algorithm is not Algorithm.BASE else 0.0,
            arrival_rate=preset.arrival_rate * SATURATION_FACTOR,
            seed_offset=index,
        )
        return Fig11Row(
            num_nodes=num_nodes,
            algorithm=algorithm.value,
            throughput=result.throughput,
            sustained_throughput=result.sustained_throughput,
            epsilon_at_calibration=epsilon,
            calibrated_budget=budget,
        )

    cells = [
        cell(index, num_nodes, algorithm)
        for index, num_nodes in enumerate(preset.node_grid)
        for algorithm in (Algorithm.BASE,) + tuple(FILTERED_ALGORITHMS)
    ]
    return run_cells(cells, jobs=jobs, cache=cache)


def format_result(rows: Sequence[Fig11Row]) -> str:
    return format_table(
        ["N", "algo", "results/s", "sustained/s", "eps@cal", "budget T"],
        [
            (
                r.num_nodes,
                r.algorithm,
                r.throughput,
                r.sustained_throughput,
                r.epsilon_at_calibration,
                r.calibrated_budget,
            )
            for r in rows
        ],
    )
