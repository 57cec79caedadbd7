"""Run results: everything Section 6's figures are computed from."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.metrics.error import epsilon_error


@dataclass
class RunResult:
    """Aggregated outcome of one simulated run."""

    config: Dict[str, object]
    truth_pairs: int
    reported_pairs: int
    duplicate_reports: int
    spurious_reports: int
    tuples_arrived: int
    duration_seconds: float
    arrival_span_seconds: float
    traffic: Dict[str, float]
    messages_by_kind: Dict[str, int]
    node_diagnostics: Dict[int, Dict[str, float]] = field(default_factory=dict)
    throughput_series: List[Tuple[int, int]] = field(default_factory=list)
    sustained_throughput: float = 0.0
    per_query: List[Dict[str, float]] = field(default_factory=list)
    """One entry repeating the headline truth, reported pairs and epsilon
    under query id 0: a leftover of the multi-query layout that every
    ``result_digest`` includes, until the next digest re-pin drops it."""

    latency: Dict[str, float] = field(default_factory=dict)
    """Result-latency summary (count/mean/p50/p95/max): simulated seconds
    from a pair's completion (later member's arrival) to its report."""

    reliability: Dict[str, float] = field(default_factory=dict)
    """System-wide reliable-transport and failure-detector counters
    (retransmits, delivery failures, detected failures, recovery latency,
    staleness histogram).  Empty when the reliability layer is disabled."""

    faults: Dict[str, float] = field(default_factory=dict)
    """Fault-injection summary (events, messages blocked, activations per
    kind).  Empty when the run had no fault plan."""

    recovery: Dict[str, float] = field(default_factory=dict)
    """Checkpoint/restart recovery counters (checkpoints taken and bytes,
    arrivals logged/replayed, restarts, clean vs degraded rejoins, rejoin
    latency).  Empty when recovery is disabled."""

    overload: Dict[str, float] = field(default_factory=dict)
    """Overload-protection counters (tuples/messages shed at nodes and
    links, suppressed summary flushes, degradation-mode transitions and
    per-mode residency).  Empty when overload protection is disabled."""

    profile: Dict[str, Dict[str, float]] = field(default_factory=dict)
    """The ``snapshot()`` of the recorder the run was handed as
    ``profiler=`` (see ``DistributedJoinSystem.profiler``).  Empty -- and
    zero-overhead -- when none was attached."""

    manifest: Dict[str, object] = field(default_factory=dict)
    """Run provenance (seed, package version, kernel mode, config echo)
    from :func:`repro.telemetry.manifest.build_manifest`; attached to
    every run whether or not telemetry is enabled."""

    telemetry: Dict[str, float] = field(default_factory=dict)
    """Telemetry-hub totals (events by category, samples taken,
    instrument count).  Empty when telemetry is disabled."""

    @property
    def epsilon(self) -> float:
        """Equation 1's error."""
        return epsilon_error(self.truth_pairs, self.reported_pairs)

    @property
    def data_messages(self) -> int:
        """Tuple + standalone-summary messages (the data plane)."""
        return self.messages_by_kind.get("tuple", 0) + self.messages_by_kind.get(
            "summary", 0
        )

    @property
    def messages_per_result_tuple(self) -> float:
        """Figure 9's y-axis; infinity when nothing was reported."""
        if self.reported_pairs == 0:
            return float("inf")
        return self.data_messages / self.reported_pairs

    @property
    def messages_per_arrival(self) -> float:
        """Observed per-tuple message complexity (Definition I, system-wide)."""
        if self.tuples_arrived == 0:
            return 0.0
        return self.data_messages / self.tuples_arrived

    @property
    def throughput(self) -> float:
        """Result tuples per simulated second over the whole run."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.reported_pairs / self.duration_seconds

    @property
    def summary_overhead_fraction(self) -> float:
        """Figure 8's y-axis: summary bytes over net-data bytes."""
        return float(self.traffic.get("summary_overhead_fraction", 0.0))

    @property
    def messages_lost(self) -> int:
        """Messages dropped in transit (lossy links + injected faults)."""
        return int(self.traffic.get("messages_lost", 0))

    @property
    def retransmits(self) -> int:
        """Reliable-channel retransmissions across all nodes."""
        return int(self.reliability.get("retransmits", 0))

    @property
    def failures_detected(self) -> int:
        """Peer-failure suspicions raised across all nodes."""
        return int(self.reliability.get("failures_detected", 0))

    def summary(self) -> Dict[str, float]:
        """The headline metrics as one flat dictionary."""
        return {
            "epsilon": self.epsilon,
            "truth_pairs": float(self.truth_pairs),
            "reported_pairs": float(self.reported_pairs),
            "messages_per_result_tuple": self.messages_per_result_tuple,
            "messages_per_arrival": self.messages_per_arrival,
            "throughput": self.throughput,
            "sustained_throughput": self.sustained_throughput,
            "summary_overhead_fraction": self.summary_overhead_fraction,
            "duration_seconds": self.duration_seconds,
        }
