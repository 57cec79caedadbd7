"""Sensitivity of the DFT methods to the workload's structure.

The paper's thesis is that correlation-aware forwarding wins *because*
real attribute streams are geographically skewed.  This experiment makes
the claim quantitative by sweeping the placement skew from none (every
node sees the global mix -- the uniform worst case) to near-total
locality, and comparing DFTT against budget-matched round-robin, the
strongest structure-blind strategy.  The DFTT advantage should be ~zero
at skew 0 and grow with skew.

A second sweep varies the Zipf exponent alpha: popularity concentration
changes the result-set size but, with rank permutation on, not the
geographic structure, so the DFTT-vs-RR gap should be far less sensitive
to alpha than to skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.flow import FlowSettings
from repro.experiments.reporting import format_table
from repro.parallel import run_configs

DEFAULT_SKEWS = (0.0, 0.3, 0.6, 0.85, 0.95)
DEFAULT_ALPHAS = (0.0, 0.4, 0.8)
SWEEP_BUDGET = 2.0


@dataclass(frozen=True)
class SensitivityRow:
    """One sweep point: the DFTT-vs-round-robin error gap."""

    parameter: str
    value: float
    epsilon_dftt: float
    epsilon_round_robin: float

    @property
    def advantage(self) -> float:
        """Error reduction DFTT achieves over structure-blind forwarding."""
        return self.epsilon_round_robin - self.epsilon_dftt


def _config(algorithm: Algorithm, skew: float, alpha: float, seed: int) -> SystemConfig:
    return SystemConfig(
        num_nodes=6,
        window_size=256,
        policy=PolicyConfig(
            algorithm=algorithm,
            kappa=16,
            flow=FlowSettings(budget_override=SWEEP_BUDGET),
        ),
        workload=WorkloadConfig(
            total_tuples=4_000,
            domain=2_048,
            arrival_rate=250.0,
            skew=skew,
            alpha=alpha,
        ),
        seed=seed,
    )


def sweep_skew(
    skews: Sequence[float] = DEFAULT_SKEWS,
    alpha: float = 0.4,
    seed: int = 29,
    jobs: int = 0,
    cache=None,
) -> List[SensitivityRow]:
    """DFTT advantage as a function of geographic skew."""
    configs = [
        _config(algorithm, skew, alpha, seed)
        for skew in skews
        for algorithm in (Algorithm.DFTT, Algorithm.ROUND_ROBIN)
    ]
    results = run_configs(configs, jobs=jobs, cache=cache)
    return [
        SensitivityRow(
            parameter="skew",
            value=float(skew),
            epsilon_dftt=results[2 * index].epsilon,
            epsilon_round_robin=results[2 * index + 1].epsilon,
        )
        for index, skew in enumerate(skews)
    ]


def sweep_alpha(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    skew: float = 0.85,
    seed: int = 29,
    jobs: int = 0,
    cache=None,
) -> List[SensitivityRow]:
    """DFTT advantage as a function of popularity concentration."""
    configs = [
        _config(algorithm, skew, alpha, seed)
        for alpha in alphas
        for algorithm in (Algorithm.DFTT, Algorithm.ROUND_ROBIN)
    ]
    results = run_configs(configs, jobs=jobs, cache=cache)
    return [
        SensitivityRow(
            parameter="alpha",
            value=float(alpha),
            epsilon_dftt=results[2 * index].epsilon,
            epsilon_round_robin=results[2 * index + 1].epsilon,
        )
        for index, alpha in enumerate(alphas)
    ]


def format_rows(rows: Sequence[SensitivityRow]) -> str:
    return format_table(
        ["param", "value", "eps DFTT", "eps RR", "advantage"],
        [
            (r.parameter, r.value, r.epsilon_dftt, r.epsilon_round_robin, r.advantage)
            for r in rows
        ],
    )
