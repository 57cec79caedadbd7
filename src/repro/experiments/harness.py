"""Shared experiment scaffolding: scales and config builders.

The paper's testbed runs windows of 2^19 tuples over 10M-tuple streams on
twenty workstations.  A pure-Python reproduction sweeps many (algorithm,
N, kappa) combinations, so each experiment accepts a *scale* preset:

* ``smoke``   -- seconds; used by the integration tests;
* ``default`` -- a couple of minutes per figure; the benchmark suite;
* ``full``    -- the closest laptop-friendly approximation of the paper.

All scaled runs keep the paper's *ratios* (window vs domain vs stream
length, kappa grid relative to W) so the figure shapes are preserved.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.flow import FlowSettings
from repro.errors import ConfigurationError
from repro.net.faults import FaultPlan
from repro.net.reliable import ReliabilitySettings
from repro.overload import OverloadSettings
from repro.recovery.settings import RecoverySettings
from repro.telemetry.settings import TelemetrySettings


@dataclass(frozen=True)
class ExperimentScale:
    """Size preset for the Section 6 reproductions."""

    name: str
    window_size: int
    domain: int
    total_tuples: int
    arrival_rate: float
    node_grid: Tuple[int, ...]
    kappa_grid: Tuple[int, ...]
    signal_length: int
    """Window length used by the pure-DFT analyses (Figures 5 and 6)."""

    default_kappa: int
    """The 'kappa = 256 equivalent' at this scale (same W/kappa ratio)."""

    seed: int = 2007


SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        window_size=128,
        domain=1024,
        total_tuples=2_000,
        arrival_rate=300.0,
        node_grid=(2, 4),
        kappa_grid=(2, 8, 32),
        signal_length=1024,
        default_kappa=16,
    ),
    "bench": ExperimentScale(
        name="bench",
        window_size=256,
        domain=2048,
        total_tuples=4_000,
        arrival_rate=250.0,
        node_grid=(4, 8),
        kappa_grid=(2, 4, 8, 16, 32, 64),
        signal_length=4096,
        default_kappa=32,
    ),
    "default": ExperimentScale(
        name="default",
        window_size=512,
        domain=4096,
        total_tuples=8_000,
        arrival_rate=250.0,
        node_grid=(4, 8, 12),
        kappa_grid=(2, 4, 8, 16, 32, 64, 128),
        signal_length=8192,
        default_kappa=64,
    ),
    "full": ExperimentScale(
        name="full",
        window_size=1024,
        domain=2**16,
        total_tuples=30_000,
        arrival_rate=250.0,
        node_grid=(2, 4, 8, 12, 16, 20),
        kappa_grid=(2, 4, 8, 16, 32, 64, 128, 256),
        signal_length=80_000,
        default_kappa=128,
    ),
}


def get_scale(scale: str = "default") -> ExperimentScale:
    """Look up a preset by name."""
    if scale not in SCALES:
        raise ConfigurationError(
            "unknown scale %r (choose from %s)" % (scale, sorted(SCALES))
        )
    return SCALES[scale]


def system_config(
    scale: ExperimentScale,
    algorithm: Algorithm,
    num_nodes: int,
    kappa: float = 0.0,
    workload_kind: WorkloadKind = WorkloadKind.ZIPF,
    budget_override: float = 0.0,
    arrival_rate: float = 0.0,
    total_tuples: int = 0,
    seed_offset: int = 0,
    telemetry: bool = False,
    telemetry_sample_interval_s: float = 1.0,
    trace_messages: bool = True,
    faults: Optional[FaultPlan] = None,
    reliability: Optional[ReliabilitySettings] = None,
    recovery: Optional[RecoverySettings] = None,
    overload: Optional[OverloadSettings] = None,
) -> SystemConfig:
    """One experiment run's configuration, derived from a scale preset.

    ``faults`` makes a fault schedule a first-class experiment knob (the
    chaos sweep threads a whole grid of plans through here); ``reliability``
    turns the control-plane ARQ / failure detector on for the run;
    ``recovery`` enables checkpoint/restart rejoin for crashed nodes (and
    requires ``reliability``); ``overload`` bounds the service queues and
    arms the degradation ladder.  All default to the paper's clean-WAN
    behaviour.
    """
    policy = PolicyConfig(
        algorithm=algorithm,
        kappa=kappa if kappa > 0 else float(scale.default_kappa),
        flow=FlowSettings(budget_override=budget_override),
    )
    workload = WorkloadConfig(
        kind=workload_kind,
        total_tuples=total_tuples if total_tuples > 0 else scale.total_tuples,
        domain=scale.domain,
        arrival_rate=arrival_rate if arrival_rate > 0 else scale.arrival_rate,
    )
    config = SystemConfig(
        num_nodes=num_nodes,
        window_size=scale.window_size,
        policy=policy,
        workload=workload,
        telemetry=TelemetrySettings(
            enabled=telemetry,
            sample_interval_s=telemetry_sample_interval_s,
            trace_messages=trace_messages,
        ),
        seed=scale.seed + seed_offset,
    )
    if faults is not None and not faults.empty:
        faults.validate(num_nodes)
        config = dataclasses.replace(config, faults=faults)
    if reliability is not None:
        config = dataclasses.replace(config, reliability=reliability)
    if recovery is not None:
        config = dataclasses.replace(config, recovery=recovery)
    if overload is not None:
        config = dataclasses.replace(config, overload=overload)
    return config


COMPARED_ALGORITHMS: Tuple[Algorithm, ...] = (
    Algorithm.BASE,
    Algorithm.DFT,
    Algorithm.DFTT,
    Algorithm.BLOOM,
    Algorithm.SKCH,
)
"""The five algorithms of the Section 6 comparisons (Figure 9/10/11)."""

FILTERED_ALGORITHMS: Tuple[Algorithm, ...] = (
    Algorithm.DFT,
    Algorithm.DFTT,
    Algorithm.BLOOM,
    Algorithm.SKCH,
)
"""The four approximate algorithms (BASE is the exact comparator)."""
