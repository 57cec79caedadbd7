"""Regression comparison between two chaos sweeps.

Workflow: save a sweep's rows with ``experiments chaos --out`` as the
baseline; after changing the code, rerun the sweep with ``--baseline``.
:func:`compare_chaos` matches rows on (scale, algorithm, mesh, fault
level, seed, recovery on/off) and diffs the chaos headline metrics --
epsilon, bytes on the wire, recovery latency, time in worst-case mode --
against a relative tolerance.  Because chaos runs are byte-deterministic
per seed + plan, a same-code comparison shows exactly zero drift; any
nonzero drift is a real behavioural change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.reporting import format_table


@dataclass(frozen=True)
class MetricDrift:
    """One metric's change between baseline and candidate."""

    key: Tuple
    metric: str
    baseline: float
    candidate: float
    tolerance: float

    @property
    def relative_change(self) -> float:
        scale = max(abs(self.baseline), 1e-12)
        return (self.candidate - self.baseline) / scale

    @property
    def within_tolerance(self) -> bool:
        return abs(self.relative_change) <= self.tolerance


@dataclass
class RegressionReport:
    """Outcome of comparing two result sets."""

    drifts: List[MetricDrift]
    unmatched_baseline: List[Tuple]
    unmatched_candidate: List[Tuple]

    @property
    def regressions(self) -> List[MetricDrift]:
        return [drift for drift in self.drifts if not drift.within_tolerance]

    @property
    def passed(self) -> bool:
        return not self.regressions and not self.unmatched_baseline

    def format(self) -> str:
        rows = [
            (
                "/".join(str(part) for part in drift.key[:2]),
                drift.metric,
                drift.baseline,
                drift.candidate,
                100 * drift.relative_change,
                drift.within_tolerance,
            )
            for drift in self.drifts
        ]
        table = format_table(
            ["run", "metric", "baseline", "candidate", "drift %", "ok"], rows
        )
        footer = "\n%d regression(s); %d unmatched baseline run(s)" % (
            len(self.regressions),
            len(self.unmatched_baseline),
        )
        return table + footer


def _match_and_diff(
    baseline: Sequence,
    candidate: Sequence,
    tolerance: float,
    metrics: Sequence[str],
    key_of: Callable[[object], Tuple],
    values_of: Callable[[object], Mapping[str, object]],
    what: str,
) -> RegressionReport:
    """Match entries by ``key_of`` and diff ``values_of`` on each metric."""
    if tolerance < 0:
        raise ConfigurationError("tolerance must be non-negative")
    baseline_by_key: Dict[Tuple, object] = {}
    for entry in baseline:
        key = key_of(entry)
        if key in baseline_by_key:
            raise ConfigurationError("duplicate baseline %s %r" % (what, key))
        baseline_by_key[key] = entry

    drifts: List[MetricDrift] = []
    matched = set()
    unmatched_candidate = []
    for entry in candidate:
        key = key_of(entry)
        reference = baseline_by_key.get(key)
        if reference is None:
            unmatched_candidate.append(key)
            continue
        matched.add(key)
        reference_values = values_of(reference)
        candidate_values = values_of(entry)
        for metric in metrics:
            drifts.append(
                MetricDrift(
                    key=key,
                    metric=metric,
                    baseline=float(reference_values[metric]),
                    candidate=float(candidate_values[metric]),
                    tolerance=tolerance,
                )
            )
    unmatched_baseline = [key for key in baseline_by_key if key not in matched]
    return RegressionReport(
        drifts=drifts,
        unmatched_baseline=unmatched_baseline,
        unmatched_candidate=unmatched_candidate,
    )


CHAOS_MATCH_FIELDS = (
    "scale",
    "algorithm",
    "num_nodes",
    "level",
    "seed",
    "recovery_enabled",
)
"""Fields identifying 'the same chaos cell' across code versions (the
``--recovery`` comparison mode emits the same (algo, level) cell twice,
distinguished by ``recovery_enabled``)."""

CHAOS_COMPARED_METRICS = (
    "epsilon",
    "total_bytes",
    "bytes_lost",
    "messages_blocked",
    "recovery_latency_mean_s",
    "worst_case_s",
    "dead_letters",
    "tuples_replayed",
    "rejoin_latency_s",
)


def chaos_key(row) -> Tuple:
    """The identity of a chaos cell for baseline matching."""
    payload = row.as_dict()
    return tuple(payload.get(field) for field in CHAOS_MATCH_FIELDS)


def compare_chaos(
    baseline: Sequence,
    candidate: Sequence,
    tolerance: float = 0.15,
    metrics: Sequence[str] = CHAOS_COMPARED_METRICS,
) -> RegressionReport:
    """Match chaos rows by cell identity and diff their headline metrics."""
    return _match_and_diff(
        baseline,
        candidate,
        tolerance,
        metrics,
        chaos_key,
        lambda row: row.as_dict(),
        "chaos cell",
    )
