"""Figure 8: DFT coefficient updates as a percentage of net data.

The paper runs the DFT algorithm on the Zipf workload with kappa = 256
and reports that coefficient updates account for 1.38-2.84% of the bytes
of net data transmitted, *decreasing* as nodes are added (more nodes mean
more tuple traffic over which the summary bytes amortize).

This module reproduces the sweep at a chosen scale; the shape assertions
are (a) the overhead is a small fraction and (b) it trends down with N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config import Algorithm, WorkloadKind
from repro.experiments.harness import get_scale, system_config
from repro.experiments.reporting import format_table
from repro.parallel import run_configs


@dataclass(frozen=True)
class Fig8Row:
    """Overhead at one system size."""

    num_nodes: int
    summary_bytes: int
    net_data_bytes: int
    overhead_percent: float
    epsilon: float


def run(
    scale: str = "default", kappa: float = 0.0, jobs: int = 0, cache=None
) -> List[Fig8Row]:
    """DFT-policy runs across the node grid, overhead accounting on.

    Adding nodes adds stream *sources* (the paper's setting), so the
    workload scales with N: per-node arrival rate and per-node tuple
    count are held constant across the grid.  Result traffic then grows
    faster than summary traffic and the overhead percentage falls.
    """
    preset = get_scale(scale)
    reference_nodes = preset.node_grid[0]
    per_node_tuples = max(1, preset.total_tuples // reference_nodes)
    per_node_rate = preset.arrival_rate / reference_nodes
    configs = [
        system_config(
            preset,
            Algorithm.DFT,
            num_nodes,
            kappa=kappa,
            workload_kind=WorkloadKind.ZIPF,
            seed_offset=index,
            total_tuples=per_node_tuples * num_nodes,
            arrival_rate=per_node_rate * num_nodes,
        )
        for index, num_nodes in enumerate(preset.node_grid)
    ]
    results = run_configs(configs, jobs=jobs, cache=cache)
    return [
        Fig8Row(
            num_nodes=num_nodes,
            summary_bytes=int(result.traffic["summary_bytes"]),
            net_data_bytes=int(result.traffic["net_data_bytes"]),
            overhead_percent=100.0 * result.summary_overhead_fraction,
            epsilon=result.epsilon,
        )
        for num_nodes, result in zip(preset.node_grid, results)
    ]


def format_result(rows: Sequence[Fig8Row]) -> str:
    return format_table(
        ["N", "summary bytes", "net data bytes", "overhead %", "epsilon"],
        [
            (
                row.num_nodes,
                row.summary_bytes,
                row.net_data_bytes,
                row.overhead_percent,
                row.epsilon,
            )
            for row in rows
        ],
    )
