"""Load-balance analysis across nodes.

The paper's improvement claims hinge on per-node resource consumption;
this module condenses a run's per-node diagnostics into the standard
fairness statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.results import RunResult
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LoadBalanceReport:
    """Distribution of one per-node quantity."""

    metric: str
    per_node: Dict[int, float]
    mean: float
    maximum: float
    minimum: float
    jain_index: float
    """Jain's fairness index: 1.0 = perfectly even, 1/N = one node does
    everything."""


def load_balance_report(result: RunResult, metric: str = "busy_seconds") -> LoadBalanceReport:
    """Summarize how evenly ``metric`` spreads over the nodes."""
    per_node = {}
    for node, diagnostics in result.node_diagnostics.items():
        if metric not in diagnostics:
            raise ConfigurationError(
                "metric %r not in node diagnostics (have: %s)"
                % (metric, ", ".join(sorted(diagnostics)))
            )
        per_node[node] = float(diagnostics[metric])
    if not per_node:
        raise ConfigurationError("result has no node diagnostics")
    values = list(per_node.values())
    total = sum(values)
    squares = sum(v * v for v in values)
    jain = (total * total) / (len(values) * squares) if squares > 0 else 1.0
    return LoadBalanceReport(
        metric=metric,
        per_node=per_node,
        mean=total / len(values),
        maximum=max(values),
        minimum=min(values),
        jain_index=jain,
    )
