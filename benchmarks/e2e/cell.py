"""The shared benchmark cell and its four workloads.

Everything a run depends on is one of two frozen dataclasses, so a
comparison between two commits is a comparison of identical inputs:

* :class:`Cell` -- the paper's Section 6 evaluation cell (20 nodes) at
  the window/kappa ratio the experiment harness uses, small enough that
  windows are *full* after the warmup (the steady state long sweeps pay
  for, not the fill regime);
* :class:`Workload` -- algorithm, key distribution, measured-phase size
  and whether the optional subsystems (reliability, recovery, overload,
  telemetry, a fault plan) are live.

Sizes are tuple counts, never time boxes: ``--seconds`` scales the four
measured counts by one common factor (``seconds / REFERENCE_SECONDS``)
and the warmup stays whole, so both sides of a comparison do identical
work.  This module imports nothing from ``repro`` at import time; only
:func:`system_config` does, inside the child process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

REFERENCE_SECONDS = 40
"""The measured-phase length (host seconds on the 2-core box, at the
commit that defined the benchmark) that ``Workload.reference_tuples``
buys, to within 15 %."""

DEFAULT_SECONDS = 6
"""``run_seconds`` in BENCHMARK.json; the default of every entry point.
The driver's 92 runs each pay the whole warmup (4-15 s), which leaves
this much for the measured phase inside its time cap."""

SLICES = 12
"""The measured phase is cut into this many slices of equal tuples
serviced, so per-slice rates can be reported beside the total."""


@dataclass(frozen=True)
class Cell:
    """Node count, window geometry and arrival process shared by all workloads."""

    num_nodes: int = 20
    window_size: int = 128
    kappa: float = 16.0
    """W / kappa = 8 coefficients, the ratio of the harness scales."""
    domain: int = 1024
    arrival_rate: float = 250.0

    @property
    def warmup_tuples(self) -> int:
        """Arrivals after which the per-node R and S windows are full on
        average: 2 streams x nodes x window."""
        return 2 * self.num_nodes * self.window_size

    @property
    def t_warm(self) -> float:
        """Simulated time at which the warmup arrivals are in."""
        return self.warmup_tuples / self.arrival_rate


@dataclass(frozen=True)
class Workload:
    """One named input set; ``why`` is the one-line reason it exists."""

    name: str
    why: str
    algorithm: str
    keys: str
    """``WorkloadKind`` value: ZIPF (alpha 0.4) or UNI."""
    reference_tuples: int
    """Measured-phase tuples at ``REFERENCE_SECONDS``."""
    chaos: bool = False
    """Reliability, recovery, overload protection, telemetry and the
    fault plan of :func:`fault_spec` all enabled."""

    @property
    def clean(self) -> bool:
        return not self.chaos

    def measured_tuples(self, seconds: float) -> int:
        return max(SLICES, round(self.reference_tuples * seconds / REFERENCE_SECONDS))


CELL = Cell()

SMOKE_CELL = Cell(num_nodes=6, window_size=32, kappa=4.0, arrival_rate=100.0)
"""Same shape, small enough for the self-checks; the arrival rate is one
BASE sustains on six nodes, so its exactness check holds here too."""
SMOKE_TOTAL_TUPLES = 1500

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="base-zipf-n20",
        why="BASE broadcast: 19 sends per tuple load scheduler, links, node service and "
        "hash join; the exactness check (epsilon 0) and the backlog case",
        algorithm="BASE",
        keys="ZIPF",
        reference_tuples=16000,
    ),
    Workload(
        name="dftt-zipf-n20",
        why="DFTT on skewed keys: the policy layer (similarity + reconstruction) is "
        "most of the wall time; the workload the hot-path item must move",
        algorithm="DFTT",
        keys="ZIPF",
        reference_tuples=10000,
    ),
    Workload(
        name="dft-uni-n20",
        why="DFT on uniform keys, the paper's worst case: similarity at every refresh with "
        "no skew to find, worst-case detection live, summary deltas that churn unlike ZIPF",
        algorithm="DFT",
        keys="UNI",
        reference_tuples=12000,
    ),
    Workload(
        name="chaos-bloom-n20",
        why="BLOOM with reliability, recovery, overload protection, telemetry and a "
        "fault plan live: every optional subsystem on the node and network path",
        algorithm="BLOOM",
        keys="ZIPF",
        reference_tuples=13000,
        chaos=True,
    ),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}


UNREACHABLE_QUEUE_BOUND = 1_000_000
"""The chaos workload's hard queue bound.  The contract this benchmark is
written to wants workloads on which no operation fails, so the overload
ladder throttles on its default watermarks but the bound at which a node
would shed tuples is out of reach."""


def fault_spec(cell: Cell, measured_tuples: int) -> str:
    """The chaos workload's fault plan, literal so it does not depend on
    ``repro.experiments.chaos``.

    Start times and the two long durations are fixed fractions of the
    measured arrival span (all after ``t_warm``), so scaling the measured
    count keeps every fault inside the measured phase.  At the size the
    issue was written for (13000 tuples, span 52 s) this is its plan --
    loss burst at 25 s for 20 s, partition at 35 s, overload at 30 s for
    30 s -- minus the two node crashes: a crashed node loses the tuples
    in its queue, and no operation may fail.
    """
    span = measured_tuples / cell.arrival_rate
    first_half = "+".join(str(node) for node in range(cell.num_nodes // 2))

    def at(fraction: float) -> str:
        return "%.2f" % (cell.t_warm + fraction * span)

    return "; ".join(
        (
            "loss_burst@t=%s,d=%.2f,p=0.3" % (at(0.087), 0.385 * span),
            "partition@t=%s,d=2,nodes=%s" % (at(0.279), first_half),
            "overload@t=%s,d=%.2f,nodes=0,factor=8" % (at(0.183), 0.577 * span),
        )
    )


def system_config(cell: Cell, workload: Workload, seed: int, measured_tuples: int):
    """The ``SystemConfig`` of one run: warmup + measured tuples, one
    query, COUNT windows, serial engine."""
    from repro.config import (
        Algorithm,
        PolicyConfig,
        SystemConfig,
        WorkloadConfig,
        WorkloadKind,
    )

    optional = {}
    if workload.chaos:
        from repro.net.faults import FaultPlan
        from repro.net.reliable import ReliabilitySettings
        from repro.overload.settings import OverloadSettings
        from repro.recovery.settings import RecoverySettings
        from repro.telemetry.settings import TelemetrySettings

        optional = dict(
            reliability=ReliabilitySettings(enabled=True),
            recovery=RecoverySettings(enabled=True),
            overload=OverloadSettings(enabled=True, queue_bound=UNREACHABLE_QUEUE_BOUND),
            telemetry=TelemetrySettings(enabled=True, trace_messages=False),
            faults=FaultPlan.parse(fault_spec(cell, measured_tuples), cell.num_nodes),
        )
    return SystemConfig(
        num_nodes=cell.num_nodes,
        window_size=cell.window_size,
        policy=PolicyConfig(algorithm=Algorithm(workload.algorithm), kappa=cell.kappa),
        workload=WorkloadConfig(
            kind=WorkloadKind(workload.keys),
            total_tuples=cell.warmup_tuples + measured_tuples,
            domain=cell.domain,
            arrival_rate=cell.arrival_rate,
        ),
        seed=seed,
        **optional,
    )
