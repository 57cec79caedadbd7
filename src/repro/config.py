"""Experiment and system configuration.

Three frozen dataclasses describe a complete run:

* :class:`PolicyConfig` -- which forwarding algorithm runs at the nodes and
  its knobs (compression factor, flow budget, summary cadence, similarity
  measure);
* :class:`WorkloadConfig` -- what data arrives, how fast, and how
  geographically skewed its placement is;
* :class:`SystemConfig` -- how many nodes, window sizes, the WAN link
  model and the optional subsystems.

The paper's testbed -- sender pacing and the node service-time model --
is a set of module constants below, not settings: no entry point varies
it.  They are read where they are used, so a check that needs another
value patches one name.

Everything is serializable to plain dictionaries (``as_dict``) so results
can echo the exact configuration that produced them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict

from repro.core.correlation import SimilarityMeasure
from repro.core.flow import FlowSettings
from repro.errors import ConfigurationError
from repro.net.faults import FaultPlan
from repro.net.link import LinkSpec
from repro.net.reliable import ReliabilitySettings
from repro.overload.settings import OverloadSettings
from repro.recovery.settings import RecoverySettings
from repro.telemetry.settings import TelemetrySettings

SENDER_PACED_BPS = 90_000.0
"""The testbed pauses the *sender* one second per 90 kilobits: a node's
service time pays every message it sends at this rate (links carry
latency only by default)."""

CPU_SECONDS_PER_TUPLE = 0.0002
"""Service time of one local arrival, before its sends."""

CPU_SECONDS_PER_PROBE = 0.00005
"""Service time of one received message, before its sends."""

SUMMARY_FLUSH_MULTIPLE = 8.0
"""A standalone summary goes to a peer not contacted for this multiple
of the node's mean inter-arrival time (Figure 7's dynamic period)."""


class Algorithm(enum.Enum):
    """The forwarding algorithms compared in Section 6."""

    BASE = "BASE"
    ROUND_ROBIN = "RR"
    DFT = "DFT"
    DFTT = "DFTT"
    BLOOM = "BLOOM"
    SKCH = "SKCH"


class WorkloadKind(enum.Enum):
    """The four workloads of Section 6."""

    UNIFORM = "UNI"
    ZIPF = "ZIPF"
    FINANCIAL = "FIN"
    NETWORK = "NWRK"


class WindowKind(enum.Enum):
    """Window definitions of Section 2 supported by the runtime.

    The algorithms are agnostic to the definition (the paper evaluates
    with tuple-count windows, as do our experiments); the runtime also
    supports time-based windows end-to-end.  DFT summaries always cover
    the most recent ``window_size`` tuples -- for a time window that is an
    approximation whose quality degrades only if the window population
    wanders far from ``window_size``.
    """

    COUNT = "count"
    TIME = "time"
    LANDMARK = "landmark"


@dataclass(frozen=True)
class PolicyConfig:
    """Per-node forwarding-policy parameters."""

    algorithm: Algorithm = Algorithm.DFTT
    flow: FlowSettings = field(default_factory=FlowSettings)
    similarity: SimilarityMeasure = SimilarityMeasure.DISTRIBUTION
    kappa: float = 256.0
    """Compression factor: the summary budget is max(1, W / kappa) entries."""

    summary_refresh_interval: int = 32
    """Local arrivals between summary delta recomputations/broadcasts."""

    def validate(self) -> None:
        if not math.isfinite(self.kappa):
            raise ConfigurationError("kappa must be finite")
        if self.kappa < 1:
            raise ConfigurationError("kappa must be >= 1")
        if self.summary_refresh_interval < 1:
            raise ConfigurationError("summary_refresh_interval must be >= 1")

    def summary_budget(self, window_size: int) -> int:
        """Summary entries per broadcast: W / kappa, at least 1."""
        return max(1, int(window_size / self.kappa))


@dataclass(frozen=True)
class WorkloadConfig:
    """Data and arrival-process parameters."""

    kind: WorkloadKind = WorkloadKind.ZIPF
    total_tuples: int = 20_000
    domain: int = 2**13
    alpha: float = 0.4
    arrival_rate: float = 400.0
    """System-wide tuple arrivals per simulated second (both streams)."""

    skew: float = 0.85
    """Geographic placement skew (see GeographicPartitioner)."""

    def validate(self) -> None:
        if self.total_tuples < 1:
            raise ConfigurationError("total_tuples must be >= 1")
        if self.domain < 2:
            raise ConfigurationError("domain must be >= 2")
        if not math.isfinite(self.alpha):
            raise ConfigurationError("alpha must be finite")
        if self.alpha < 0:
            raise ConfigurationError("alpha must be non-negative")
        if not math.isfinite(self.arrival_rate):
            raise ConfigurationError("arrival_rate must be finite")
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if not 0.0 <= self.skew <= 1.0:
            raise ConfigurationError("skew must lie in [0, 1]")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated run."""

    num_nodes: int = 4
    window_size: int = 512
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    link: LinkSpec = field(default_factory=lambda: LinkSpec(bandwidth_bps=math.inf))
    """Links carry latency only by default; bandwidth is sender-paced
    (``SENDER_PACED_BPS``), mirroring the paper's emulation (the *sender*
    pauses per 90 kilobits)."""

    window_kind: WindowKind = WindowKind.COUNT
    """COUNT (default) or TIME windows; see :class:`WindowKind`."""

    window_seconds: float = 0.0
    """Span of TIME windows in simulated seconds (required for TIME)."""

    landmark_key: int = 0
    """LANDMARK windows: observing this joining-attribute value resets the
    window (Section 2's "until a specific tuple is observed").  The window
    is additionally capped at window_size tuples between landmarks."""

    reliability: ReliabilitySettings = field(default_factory=ReliabilitySettings)
    """Control-plane ARQ + failure detector (disabled by default: the
    paper's wire protocol, bit-for-bit)."""

    faults: FaultPlan = field(default_factory=FaultPlan)
    """Deterministic fault schedule (empty by default: a healthy WAN)."""

    telemetry: TelemetrySettings = field(default_factory=TelemetrySettings)
    """Metrics/tracing/dashboard knobs (off by default; see
    :mod:`repro.telemetry`)."""

    recovery: RecoverySettings = field(default_factory=RecoverySettings)
    """Checkpoint/restart recovery knobs (off by default; see
    :mod:`repro.recovery`).  Requires the reliable transport."""

    overload: OverloadSettings = field(default_factory=OverloadSettings)
    """Bounded queues / load-shedding knobs (off by default: queues grow
    without bound, the pre-overload semantics; see :mod:`repro.overload`)."""

    seed: int = 0

    def validate(self) -> None:
        if self.num_nodes < 2:
            raise ConfigurationError("num_nodes must be >= 2")
        if self.window_size < 1:
            raise ConfigurationError("window_size must be >= 1")
        if self.window_kind is WindowKind.TIME and self.window_seconds <= 0:
            raise ConfigurationError("TIME windows require window_seconds > 0")
        if self.window_kind is not WindowKind.TIME and self.window_seconds:
            raise ConfigurationError("window_seconds is only valid for TIME windows")
        if self.window_kind is WindowKind.LANDMARK and not (
            1 <= self.landmark_key <= self.workload.domain
        ):
            raise ConfigurationError(
                "LANDMARK windows require landmark_key inside the key domain"
            )
        if self.window_kind is not WindowKind.LANDMARK and self.landmark_key:
            raise ConfigurationError(
                "landmark_key is only valid for LANDMARK windows"
            )
        self.policy.validate()
        self.workload.validate()
        self.link.validate()
        self.reliability.validate()
        self.faults.validate(self.num_nodes)
        self.telemetry.validate()
        self.recovery.validate()
        self.overload.validate()
        if self.recovery.enabled and not self.reliability.enabled:
            raise ConfigurationError(
                "recovery requires the reliable transport (reliability.enabled):"
                " the rejoin protocol's state transfer rides the ARQ channel"
            )

    def as_dict(self) -> Dict[str, object]:
        """Flat, JSON-friendly echo of the configuration.

        Overload keys appear only when the subsystem is enabled, so runs
        with the default settings echo byte-identically to builds that
        predate it.
        """
        payload: Dict[str, object] = {
            "num_nodes": self.num_nodes,
            "window_size": self.window_size,
            "algorithm": self.policy.algorithm.value,
            "kappa": self.policy.kappa,
            "similarity": self.policy.similarity.value,
            # repro.core.flow.BUDGET_FRACTION, a literal for the same reason
            # as "delta_state_transfer" below.
            "budget_fraction": 1.0,
            "budget_override": self.policy.flow.budget_override,
            "workload": self.workload.kind.value,
            "total_tuples": self.workload.total_tuples,
            "domain": self.workload.domain,
            "alpha": self.workload.alpha,
            "arrival_rate": self.workload.arrival_rate,
            "skew": self.workload.skew,
            # repro.streams.partitioner.SPREAD, a literal like
            # "budget_fraction" above.
            "spread": 0.35,
            "reliability_enabled": self.reliability.enabled,
            "fault_events": len(self.faults.events),
            "telemetry_enabled": self.telemetry.enabled,
            "recovery_enabled": self.recovery.enabled,
            "checkpoint_interval_s": self.recovery.checkpoint_interval_s,
            # Constant since the full-snapshot protocol was deleted; kept
            # so every config echo, manifest and digest keeps its bytes.
            "delta_state_transfer": True,
            "seed": self.seed,
        }
        if self.overload.enabled:
            payload["overload_enabled"] = True
            payload["queue_bound"] = self.overload.queue_bound
            payload["shed_watermark"] = self.overload.shed_watermark
            payload["throttle_watermark"] = self.overload.throttle_watermark
        return payload
