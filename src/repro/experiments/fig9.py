"""Figure 9: messages per result tuple, uniform vs Zipf data.

The paper fixes eps = 15% and reports, per algorithm and system size, the
total number of messages transmitted per result tuple.  Under uniform
data all filtered algorithms perform alike (the correlation signal is
flat); under skew DFTT needs the fewest messages, BLOOM fewer than SKCH,
and DFT trails both (it filters flows but cannot test individual tuples).
BASE is the unfiltered comparator.

Each (workload, N, algorithm) cell is produced by calibrating the flow
budget to the error target (see :mod:`repro.experiments.calibrate`);
BASE needs no calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import Algorithm, SystemConfig, WorkloadKind
from repro.experiments.calibrate import budget_search
from repro.experiments.harness import (
    FILTERED_ALGORITHMS,
    get_scale,
    system_config,
)
from repro.experiments.reporting import format_table
from repro.parallel import Cell, RunCache, run_cells

TARGET_EPSILON = 0.15


@dataclass(frozen=True)
class Fig9Cell:
    """One bar of Figure 9."""

    workload: str
    num_nodes: int
    algorithm: str
    messages_per_result_tuple: float
    messages_per_arrival: float
    achieved_epsilon: float
    calibrated_budget: float


def run(
    scale: str = "default",
    workloads: Sequence[WorkloadKind] = (WorkloadKind.UNIFORM, WorkloadKind.ZIPF),
    target_epsilon: float = TARGET_EPSILON,
    max_probes: int = 5,
    jobs: int = 0,
    cache: Optional[RunCache] = None,
) -> List[Fig9Cell]:
    """Calibrated message-efficiency comparison."""
    preset = get_scale(scale)

    def cell(
        workload: WorkloadKind, index: int, num_nodes: int, algorithm: Algorithm
    ) -> Cell[Fig9Cell]:
        """One bar: BASE runs once, every other algorithm is a budget
        calibration (see :func:`budget_search`)."""

        def make_config(budget: float) -> SystemConfig:
            return system_config(
                preset,
                algorithm,
                num_nodes,
                workload_kind=workload,
                budget_override=budget,
                seed_offset=index,
            )

        if algorithm is Algorithm.BASE:
            result = yield make_config(0.0)
            budget = float(num_nodes - 1)
        else:
            calibration = yield from budget_search(
                make_config, target_epsilon=target_epsilon, max_probes=max_probes
            )
            result, budget = calibration.result, calibration.budget
        return Fig9Cell(
            workload=workload.value,
            num_nodes=num_nodes,
            algorithm=algorithm.value,
            messages_per_result_tuple=result.messages_per_result_tuple,
            messages_per_arrival=result.messages_per_arrival,
            achieved_epsilon=result.epsilon,
            calibrated_budget=budget,
        )

    cells = [
        cell(workload, index, num_nodes, algorithm)
        for workload in workloads
        for index, num_nodes in enumerate(preset.node_grid)
        for algorithm in (Algorithm.BASE,) + tuple(FILTERED_ALGORITHMS)
    ]
    return run_cells(cells, jobs=jobs, cache=cache)


def format_result(cells: Sequence[Fig9Cell]) -> str:
    return format_table(
        ["workload", "N", "algo", "msgs/result", "msgs/arrival", "eps", "budget T"],
        [
            (
                c.workload,
                c.num_nodes,
                c.algorithm,
                c.messages_per_result_tuple,
                c.messages_per_arrival,
                c.achieved_epsilon,
                c.calibrated_budget,
            )
            for c in cells
        ],
    )
