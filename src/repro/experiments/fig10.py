"""Figure 10: error vs compression factor (a) and vs system size (b).

Panel (a): W fixed, kappa swept from small to large (summaries from half
the window down to a handful of entries), Zipf data.  Expected shape:
every algorithm's error grows as summaries shrink; DFTT degrades the most
gracefully, BLOOM collapses once the filter saturates (its counters need
~bits-per-item that large kappa cannot provide), and SKCH's error climbs
steeply at the smallest sketch sizes.

Panel (b): kappa fixed at the scale's "kappa = 256 equivalent", node
count swept 2..20 (paper) -- error grows with N for everyone, slowest
for DFTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config import Algorithm, WorkloadKind
from repro.experiments.harness import (
    FILTERED_ALGORITHMS,
    get_scale,
    system_config,
)
from repro.experiments.reporting import format_table
from repro.parallel import run_configs

SWEEP_BUDGET = 2.0
"""Flow budget used for both panels: the same moderate T for every
algorithm, so error differences come from summary quality alone."""


@dataclass(frozen=True)
class Fig10aRow:
    """One (kappa, algorithm) point of panel (a)."""

    kappa: int
    summary_entries: int
    algorithm: str
    epsilon: float
    messages_per_arrival: float


@dataclass(frozen=True)
class Fig10bRow:
    """One (N, algorithm) point of panel (b)."""

    num_nodes: int
    algorithm: str
    epsilon: float
    messages_per_arrival: float


def run_panel_a(
    scale: str = "default",
    num_nodes: int = 8,
    algorithms: Sequence[Algorithm] = FILTERED_ALGORITHMS,
    jobs: int = 0,
    cache=None,
) -> List[Fig10aRow]:
    """Error-vs-kappa sweep at fixed window and node count."""
    preset = get_scale(scale)
    cells = [
        (kappa, algorithm)
        for kappa in preset.kappa_grid
        for algorithm in algorithms
    ]
    configs = [
        system_config(
            preset,
            algorithm,
            num_nodes,
            kappa=float(kappa),
            workload_kind=WorkloadKind.ZIPF,
            budget_override=SWEEP_BUDGET,
        )
        for kappa, algorithm in cells
    ]
    results = run_configs(configs, jobs=jobs, cache=cache)
    return [
        Fig10aRow(
            kappa=int(kappa),
            summary_entries=config.policy.summary_budget(preset.window_size),
            algorithm=algorithm.value,
            epsilon=result.epsilon,
            messages_per_arrival=result.messages_per_arrival,
        )
        for (kappa, algorithm), config, result in zip(cells, configs, results)
    ]


def run_panel_b(
    scale: str = "default",
    algorithms: Sequence[Algorithm] = FILTERED_ALGORITHMS,
    kappa: float = 0.0,
    jobs: int = 0,
    cache=None,
) -> List[Fig10bRow]:
    """Error-vs-N sweep at the fixed default compression factor."""
    preset = get_scale(scale)
    cells = [
        (index, num_nodes, algorithm)
        for index, num_nodes in enumerate(preset.node_grid)
        for algorithm in algorithms
    ]
    configs = [
        system_config(
            preset,
            algorithm,
            num_nodes,
            kappa=kappa,
            workload_kind=WorkloadKind.ZIPF,
            budget_override=SWEEP_BUDGET,
            seed_offset=index,
        )
        for index, num_nodes, algorithm in cells
    ]
    results = run_configs(configs, jobs=jobs, cache=cache)
    return [
        Fig10bRow(
            num_nodes=num_nodes,
            algorithm=algorithm.value,
            epsilon=result.epsilon,
            messages_per_arrival=result.messages_per_arrival,
        )
        for (_index, num_nodes, algorithm), result in zip(cells, results)
    ]


def format_panel_a(rows: Sequence[Fig10aRow]) -> str:
    return format_table(
        ["kappa", "entries", "algo", "epsilon", "msgs/arrival"],
        [
            (r.kappa, r.summary_entries, r.algorithm, r.epsilon, r.messages_per_arrival)
            for r in rows
        ],
    )


def format_panel_b(rows: Sequence[Fig10bRow]) -> str:
    return format_table(
        ["N", "algo", "epsilon", "msgs/arrival"],
        [(r.num_nodes, r.algorithm, r.epsilon, r.messages_per_arrival) for r in rows],
    )
