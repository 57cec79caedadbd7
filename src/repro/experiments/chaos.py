"""Chaos sweep: accuracy and transmission cost versus failure rate.

The paper's Section 6 figures are measured on a *clean* emulated WAN.
This experiment adds the axis the deployment literature cares about:
each algorithm is run across a grid of **fault intensities** -- loss-burst
probability, partition duration, crash count -- with the reliable control
plane on, and every cell reports

* the join error (Equation 1's epsilon),
* the transmission cost (total bytes on the wire, bytes destroyed),
* the recovery behaviour (failure detections, recoveries, resync count,
  recovery latency from :mod:`repro.core.health`), and
* the time the forwarding policies spent in worst-case fallback mode,
  reconstructed from the telemetry hub's ``policy.worst_case_mode`` flips.

Fault schedules are built deterministically from the scale preset (event
windows are placed relative to the nominal arrival span), so a chaos
sweep is exactly as reproducible as the clean figures: same seed + same
grid = byte-identical rows.

Usage::

    python -m repro.experiments.chaos smoke
    python -m repro.experiments.chaos bench \\
        --fault-grid "clean; storm@loss=0.5; split@part=4s,crash=1" \\
        --out chaos.json --figure chaos.txt
    python -m repro.experiments.chaos smoke --baseline chaos.json
    python -m repro.experiments.chaos smoke --jobs 4          # parallel cells
    python -m repro.experiments.chaos smoke --no-cache        # force recompute

(also reachable as ``python -m repro experiments chaos ...``).  Cells
fan out over :mod:`repro.parallel` workers and reuse its run-result
cache; rows are byte-identical at any ``--jobs`` / cache setting.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cli import float_not_nan, non_negative_int
from repro.config import Algorithm, SystemConfig
from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.experiments.ascii_plot import bar_chart, line_chart
from repro.experiments.harness import (
    COMPARED_ALGORITHMS,
    ExperimentScale,
    get_scale,
    system_config,
)
from repro.experiments.reporting import format_table
from repro.net.faults import FaultEvent, FaultKind, FaultPlan
from repro.net.reliable import ReliabilitySettings
from repro.overload import OverloadSettings
from repro.parallel import RunCache, RunRequest, resolve_cache, run_many
from repro.recovery.settings import RecoverySettings

CHAOS_FORMAT_VERSION = 4
"""Version 4 added the overload axis (``over=F`` grid knob) and the
shedding columns (tuples/messages shed, throttled/shedding residency).
Version 3 added the state-transfer columns (bytes, delta savings,
fallbacks) for the watermark-delta resync protocol."""

WORST_CASE_EVENT = "policy.worst_case_mode"


# ----------------------------------------------------------------------
# the fault grid
# ----------------------------------------------------------------------


_KNOB_ALIASES = {"partition": "part", "crashes": "crash", "overload": "over"}
"""Long spellings of the grid knobs, folded so a knob is given once."""

_KNOBS: Dict[str, Tuple[str, Callable[[str], object]]] = {
    "loss": ("loss_probability", float),
    "part": (
        "partition_s",
        lambda text: float(text[:-1] if text.lower().endswith("s") else text),
    ),
    "crash": ("crash_count", int),
    "over": ("overload_factor", float),
}
"""Each folded knob: the :class:`ChaosLevel` field it sets and how its
value is read (``part`` takes seconds with an optional ``s`` suffix)."""


@dataclass(frozen=True)
class ChaosLevel:
    """One fault intensity of the sweep.

    The four knobs are the failure axes the sweep is graded on:
    ``loss_probability`` drives a mesh-wide loss burst, ``partition_s``
    cuts half the mesh off for that many seconds, ``crash_count``
    crashes that many nodes (staggered, highest ids first), and
    ``overload_factor`` stretches node 0's service times by that
    multiple for the middle of the run (a CPU-contention surge).  All
    zero means the clean-WAN baseline cell.
    """

    name: str
    loss_probability: float = 0.0
    partition_s: float = 0.0
    crash_count: int = 0
    overload_factor: float = 0.0

    def validate(self) -> None:
        if not self.name or any(c in self.name for c in ";,@= \t"):
            raise ConfigurationError(
                "chaos level name %r must be a bare word" % (self.name,)
            )
        for knob in (self.loss_probability, self.partition_s, self.overload_factor):
            if not math.isfinite(knob):
                raise ConfigurationError(
                    "chaos level %r has a non-finite knob" % (self.name,)
                )
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ConfigurationError("loss probability must lie in [0, 1]")
        if self.partition_s < 0:
            raise ConfigurationError("partition duration must be non-negative")
        if self.crash_count < 0:
            raise ConfigurationError("crash count must be non-negative")
        if self.overload_factor != 0.0 and self.overload_factor <= 1.0:
            raise ConfigurationError(
                "overload factor must exceed 1 (it multiplies service times)"
            )

    @classmethod
    def parse(cls, chunk: str) -> "ChaosLevel":
        """One level: ``name`` (clean) or ``name@loss=P,part=Ds,crash=K``."""
        name, _, arg_text = chunk.strip().partition("@")
        knobs: Dict[str, object] = {}
        for pair in filter(None, (p.strip() for p in arg_text.split(","))):
            key, eq, value = pair.partition("=")
            if not eq:
                raise ConfigurationError(
                    "malformed chaos argument %r in %r" % (pair, chunk)
                )
            key = key.strip().lower()
            knob = _KNOB_ALIASES.get(key, key)
            if knob not in _KNOBS:
                raise ConfigurationError(
                    "unknown chaos argument %r in %r" % (key, chunk)
                )
            field, read = _KNOBS[knob]
            if field in knobs:
                raise ConfigurationError(
                    "chaos argument %r given twice in %r" % (knob, chunk)
                )
            try:
                knobs[field] = read(value.strip())
            except ValueError:
                raise ConfigurationError(
                    "cannot parse chaos argument %r in %r" % (pair, chunk)
                )
        level = cls(name=name.strip(), **knobs)
        level.validate()
        return level


DEFAULT_GRID: Tuple[ChaosLevel, ...] = (
    ChaosLevel("clean"),
    ChaosLevel("light", loss_probability=0.15),
    ChaosLevel("moderate", loss_probability=0.30, partition_s=2.0),
    ChaosLevel("severe", loss_probability=0.45, partition_s=3.0, crash_count=1),
)
"""The stock failure-rate axis: a clean baseline plus three intensities."""


def parse_grid(spec: str) -> Tuple[ChaosLevel, ...]:
    """Parse a ``;``-separated fault grid (``clean; storm@loss=0.4,crash=1``)."""
    levels = [ChaosLevel.parse(chunk) for chunk in spec.split(";") if chunk.strip()]
    if not levels:
        raise ConfigurationError("fault grid spec %r contains no levels" % spec)
    names = [level.name for level in levels]
    if len(set(names)) != len(names):
        raise ConfigurationError("fault grid has duplicate level names %r" % names)
    return tuple(levels)


def build_fault_plan(
    level: ChaosLevel,
    scale: ExperimentScale,
    num_nodes: int,
    restartable: bool = False,
) -> FaultPlan:
    """Deterministic fault schedule for one (level, scale, mesh) cell.

    Windows are placed relative to the nominal arrival span
    (``total_tuples / arrival_rate``) and kept inside its first ~80 % so
    the mesh has live traffic left to detect recoveries with:

    * loss burst  -- all links, ``[0.20, 0.55) * span``;
    * partition   -- first half of the mesh cut off at ``0.30 * span``,
      duration capped at half the span;
    * crashes     -- highest-id nodes, staggered starts from
      ``0.55 * span``, each outage capped at a quarter of the span;
    * overload    -- node 0's service times stretched by
      ``overload_factor`` over ``[0.25, 0.75) * span`` (node 0 so the
      surge never coincides with a crashed node).

    ``restartable`` spells the crashes with ``downtime_s`` equal to the
    legacy crash duration, so the outage window is *identical* and the
    only difference between the recovery-on and recovery-off cells is the
    rejoin protocol itself -- the apples-to-apples comparison the
    ``--recovery`` mode reports.
    """
    level.validate()
    if level.crash_count >= num_nodes:
        raise ConfigurationError(
            "cannot crash %d of %d nodes" % (level.crash_count, num_nodes)
        )
    span = scale.total_tuples / scale.arrival_rate
    events: List[FaultEvent] = []
    if level.loss_probability > 0:
        events.append(
            FaultEvent(
                kind=FaultKind.LOSS_BURST,
                start_s=round(0.20 * span, 6),
                duration_s=round(0.35 * span, 6),
                loss_probability=level.loss_probability,
            )
        )
    if level.partition_s > 0:
        events.append(
            FaultEvent(
                kind=FaultKind.PARTITION,
                start_s=round(0.30 * span, 6),
                duration_s=round(min(level.partition_s, 0.5 * span), 6),
                nodes=tuple(range(num_nodes // 2)),
            )
        )
    for index in range(level.crash_count):
        outage = round(min(1.5, 0.25 * span), 6)
        events.append(
            FaultEvent(
                kind=FaultKind.NODE_CRASH,
                start_s=round((0.55 + 0.08 * index) * span, 6),
                duration_s=outage,
                nodes=(num_nodes - 1 - index,),
                downtime_s=outage if restartable else 0.0,
            )
        )
    if level.overload_factor > 0:
        events.append(
            FaultEvent(
                kind=FaultKind.OVERLOAD,
                start_s=round(0.25 * span, 6),
                duration_s=round(0.50 * span, 6),
                nodes=(0,),
                slowdown_factor=level.overload_factor,
            )
        )
    plan = FaultPlan.from_events(events)
    plan.validate(num_nodes)
    return plan


# ----------------------------------------------------------------------
# rows
# ----------------------------------------------------------------------


class _Cell(NamedTuple):
    """One finished sweep cell: what a :class:`Column` reads its value from."""

    preset: ExperimentScale
    level: ChaosLevel
    plan: FaultPlan
    config: SystemConfig
    result: RunResult
    extras: Dict[str, object]


_KIND_NAMES = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "true or false",
}


@dataclass(frozen=True)
class Column:
    """One stored field of a :class:`ChaosRow`, declared once.

    ``kind`` is the field's JSON type: ``str``, ``int``, ``float`` or
    ``bool``.  ``source`` is where :func:`run` reads the value off a
    finished :class:`_Cell`: a dotted attribute path (``"level.name"``),
    a ``(section, key)`` pair naming one of the :class:`RunResult`'s
    counter dicts and a key (read as a float, ``0.0`` when the run never
    counted it), or a callable of the cell.  ``key`` marks the fields
    that identify "the same cell" across code versions; ``compared`` the
    metrics the baseline gate diffs.
    """

    name: str
    kind: type
    source: Union[str, Tuple[str, str], Callable[[_Cell], object]]
    key: bool = False
    compared: bool = False

    def read(self, cell: _Cell) -> object:
        if callable(self.source):
            return self.source(cell)
        if isinstance(self.source, tuple):
            section, key = self.source
            return float(getattr(cell.result, section).get(key, 0.0))
        return attrgetter(self.source)(cell)

    def decode(self, value: object, index: int) -> object:
        """``value`` from row ``index`` of a results file, type-checked.

        An integer in a float column (``0`` for ``0.0``) is widened; any
        other mismatch -- ``null``, a string, ``true`` for a number -- is
        a :class:`ConfigurationError`, so the baseline gate never meets it.
        """
        if type(value) is self.kind:
            return value
        if (
            self.kind is float
            and type(value) is int
            and abs(value) <= sys.float_info.max
        ):
            return float(value)
        raise ConfigurationError(
            "chaos row %d field %r must be %s, not %s"
            % (index, self.name, _KIND_NAMES[self.kind], json.dumps(value))
        )


COLUMNS: Tuple[Column, ...] = (
    Column("scale", str, "preset.name", key=True),
    Column("algorithm", str, "config.policy.algorithm.value", key=True),
    Column("num_nodes", int, "config.num_nodes", key=True),
    Column("level", str, "level.name", key=True),
    Column("seed", int, "config.seed", key=True),
    Column("loss_probability", float, "level.loss_probability"),
    Column("partition_s", float, "level.partition_s"),
    Column("crash_count", int, "level.crash_count"),
    # The level's service-time multiplier (0 = no overload fault).
    Column("overload_factor", float, "level.overload_factor"),
    Column("fault_events", int, lambda cell: len(cell.plan.events)),
    Column("epsilon", float, "result.epsilon", compared=True),
    Column("truth_pairs", int, "result.truth_pairs"),
    Column("reported_pairs", int, "result.reported_pairs"),
    Column("total_bytes", float, ("traffic", "total_bytes"), compared=True),
    Column("bytes_lost", float, ("traffic", "bytes_lost"), compared=True),
    Column("data_messages", int, "result.data_messages"),
    Column("messages_blocked", float, ("faults", "messages_blocked"), compared=True),
    Column("local_arrivals_dropped", float, ("faults", "local_arrivals_dropped")),
    Column("failures_detected", float, ("reliability", "failures_detected")),
    Column("recoveries", float, ("reliability", "recoveries")),
    Column(
        "recovery_latency_mean_s",
        float,
        ("reliability", "recovery_latency_mean_s"),
        compared=True,
    ),
    Column("recovery_latency_max_s", float, ("reliability", "recovery_latency_max_s")),
    Column("resyncs", float, ("reliability", "resyncs")),
    # Simulated seconds the policies spent in worst-case fallback mode.
    Column(
        "worst_case_s",
        float,
        lambda cell: float(cell.extras["worst_case_s"]),
        compared=True,
    ),
    Column("duration_seconds", float, "result.duration_seconds"),
    Column("recovery_enabled", bool, "config.recovery.enabled", key=True),
    Column("restarts", float, ("recovery", "restarts")),
    # Reliable-channel sends whose retries were exhausted (the messages
    # the ARQ gave up on; surfaced per-event as ``transport.dead_letter``).
    Column("dead_letters", float, ("reliability", "delivery_failures"), compared=True),
    Column("tuples_replayed", float, ("recovery", "tuples_replayed"), compared=True),
    # Mean seconds from restart to LIVE across the cell's rejoins.
    Column(
        "rejoin_latency_s", float, ("recovery", "rejoin_latency_mean_s"), compared=True
    ),
    # Bytes of recovery anti-entropy traffic (requests + responses).
    Column("state_transfer_bytes", float, ("recovery", "state_transfer_bytes")),
    # Bytes the watermark-delta resync kept off the wire relative to
    # shipping full snapshots.
    Column("transfer_bytes_saved", float, ("recovery", "state_transfer_bytes_saved")),
    # Delta resync responses downgraded to full snapshots because the
    # serving peer's history no longer covered the claimed watermark.
    Column("transfer_fallbacks", float, ("recovery", "state_transfer_fallbacks")),
    # Whether the cell ran with overload protection armed.
    Column("overload_enabled", bool, "config.overload.enabled"),
    # Local arrivals dropped by node-level load shedding (still charged
    # against the ground truth -- shedding shows up as lost recall).
    Column("shed_tuples", float, ("overload", "shed_tuples")),
    # Queued remote messages dropped by node-level shedding plus
    # messages shed at bounded link send backlogs.
    Column(
        "shed_messages",
        float,
        lambda cell: float(
            cell.result.overload.get("shed_messages", 0.0)
            + cell.result.overload.get("link_messages_shed", 0.0)
        ),
    ),
    # Total node-seconds spent in THROTTLED / SHEDDING across the mesh.
    Column("throttled_seconds", float, ("overload", "throttled_seconds")),
    Column("shedding_seconds", float, ("overload", "shedding_seconds")),
)
"""Every stored chaos field, declared once: :func:`run` fills a row from
it, :meth:`ChaosRow.from_dict` type-checks a file against it, and
:func:`compare_chaos` takes its cell key and its metrics from it, each in
table order (the gate report's metric order is pinned by a golden).
Adding a column is one entry here and a ``CHAOS_FORMAT_VERSION`` bump."""


class _RowCodec:
    """The dict form of a :class:`ChaosRow`; JSON is :func:`rows_to_json`."""

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object], index: int) -> "ChaosRow":
        """Row ``index`` of a results file; every field present, known and
        of its column's type, or :class:`ConfigurationError`."""
        names = {column.name for column in COLUMNS}
        unknown = set(payload) - names
        if unknown:
            raise ConfigurationError(
                "chaos row %d has unknown fields %s (stale file format?)"
                % (index, ", ".join(sorted(unknown)))
            )
        missing = names - set(payload)
        if missing:
            raise ConfigurationError(
                "chaos row %d is missing fields %s"
                % (index, ", ".join(sorted(missing)))
            )
        return cls(
            **{
                column.name: column.decode(payload[column.name], index)
                for column in COLUMNS
            }
        )


ChaosRow = dataclasses.make_dataclass(
    "ChaosRow",
    [(column.name, column.kind) for column in COLUMNS],
    bases=(_RowCodec,),
    namespace={
        "__module__": __name__,
        "__doc__": "One cell of the chaos figure: (algorithm, fault level) "
        "at a scale; one field per :data:`COLUMNS` entry.",
    },
    frozen=True,
)


def worst_case_seconds(events: Iterable, end_time: float) -> float:
    """Total simulated seconds any policy spent in worst-case mode.

    Reconstructed from the hub's ``policy.worst_case_mode`` flip events:
    per (node, stream) the active intervals are summed, with intervals
    still open at the end of the run closed at ``end_time``.
    """
    opened: Dict[Tuple[object, object], float] = {}
    total = 0.0
    for event in events:
        if getattr(event, "name", None) != WORST_CASE_EVENT:
            continue
        key = (event.node, event.attrs.get("stream"))
        if event.attrs.get("active"):
            opened.setdefault(key, event.time)
        else:
            start = opened.pop(key, None)
            if start is not None:
                total += event.time - start
    for start in opened.values():
        total += max(0.0, end_time - start)
    return total


def worst_case_extractor(system, result) -> float:
    """Read the worst-case residency off the *live* system's hub.

    Registered as a :class:`~repro.parallel.RunRequest` extractor (by
    ``"module:function"`` ref, so pool workers can resolve it): the flip
    events live only in the in-memory telemetry hub, which never crosses
    the process boundary -- the scalar does, and is cached alongside the
    result.
    """
    return worst_case_seconds(system.telemetry.events(), result.duration_seconds)


WORST_CASE_EXTRACTORS = (
    ("worst_case_s", "repro.experiments.chaos:worst_case_extractor"),
)


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------


def run(
    scale: str = "default",
    algorithms: Sequence[Algorithm] = COMPARED_ALGORITHMS,
    grid: Sequence[ChaosLevel] = DEFAULT_GRID,
    num_nodes: int = 0,
    reliability: Optional[ReliabilitySettings] = None,
    recovery: Optional[RecoverySettings] = None,
    overload: Optional[OverloadSettings] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 0,
    cache: Optional[RunCache] = None,
) -> List[ChaosRow]:
    """Sweep ``algorithms`` x ``grid`` at one scale; one row per cell.

    Every cell reuses the scale's seed and workload, so the fault axis is
    the *only* thing varying across a row's cells.  The reliable control
    plane is on by default (faults without retransmission or failure
    detection just measure packet loss); telemetry is always on, with
    per-message tracing off, so the worst-case-mode timeline is complete
    without the event ring overflowing.

    ``recovery`` (enabled) switches every crash in the grid to a
    *restartable* crash with the same outage window and runs each cell
    with checkpoint/restart rejoin on -- the cells then also report
    restarts, replayed arrivals, and rejoin latency.

    ``overload`` (enabled) arms every cell's overload protection --
    bounded service queues, the degradation ladder, deterministic
    shedding -- so ``over=F`` levels measure graceful degradation
    instead of unbounded queue growth.

    ``jobs`` fans the cells over pool workers and ``cache`` skips cells
    already computed; rows come back in grid order either way, so the
    golden JSON is byte-identical across all three paths.
    """
    preset = get_scale(scale)
    if not algorithms:
        raise ConfigurationError("chaos sweep needs at least one algorithm")
    levels = tuple(grid)
    if not levels:
        raise ConfigurationError("chaos sweep needs at least one fault level")
    for level in levels:
        level.validate()
    mesh = num_nodes if num_nodes > 0 else preset.node_grid[-1]
    if mesh < 2:
        raise ConfigurationError("chaos sweep needs at least 2 nodes, got %d" % mesh)
    settings = (
        reliability
        if reliability is not None
        else ReliabilitySettings(enabled=True)
    )
    rejoin = recovery if recovery is not None and recovery.enabled else None
    protection = overload if overload is not None and overload.enabled else None
    requests: List[RunRequest] = []
    cells: List[Tuple[ChaosLevel, FaultPlan]] = []
    for algorithm in algorithms:
        for level in levels:
            plan = build_fault_plan(
                level, preset, mesh, restartable=rejoin is not None
            )
            config = system_config(
                preset,
                algorithm,
                mesh,
                faults=plan,
                reliability=settings,
                recovery=rejoin,
                overload=protection,
                telemetry=True,
                trace_messages=False,
            )
            requests.append(
                RunRequest(
                    config=config,
                    extractors=WORST_CASE_EXTRACTORS,
                    label="chaos %s %s/%s" % (scale, algorithm.value, level.name),
                )
            )
            cells.append((level, plan))
    outcomes = run_many(requests, jobs=jobs, cache=cache, progress=progress)
    rows: List[ChaosRow] = []
    for (level, plan), request, outcome in zip(cells, requests, outcomes):
        cell = _Cell(
            preset, level, plan, request.config, outcome.result, outcome.extras
        )
        rows.append(ChaosRow(**{column.name: column.read(cell) for column in COLUMNS}))
    return rows


# ----------------------------------------------------------------------
# serialization (canonical: the golden tests diff these bytes)
# ----------------------------------------------------------------------


def rows_to_payload(rows: Sequence[ChaosRow]) -> Dict[str, object]:
    return {
        "format_version": CHAOS_FORMAT_VERSION,
        "rows": [row.as_dict() for row in rows],
    }


def rows_from_payload(payload: Dict[str, object]) -> List[ChaosRow]:
    version = payload.get("format_version")
    if version != CHAOS_FORMAT_VERSION:
        raise ConfigurationError(
            "unsupported chaos result version %r (expected %d)"
            % (version, CHAOS_FORMAT_VERSION)
        )
    unknown = set(payload) - {"format_version", "rows"}
    if unknown:
        raise ConfigurationError(
            "chaos payload has unknown keys %s (stale file format?)"
            % ", ".join(sorted(unknown))
        )
    rows = payload.get("rows", [])
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ConfigurationError("chaos payload 'rows' must be a list of objects")
    return [ChaosRow.from_dict(row, index) for index, row in enumerate(rows)]


def rows_to_json(rows: Sequence[ChaosRow]) -> str:
    """Canonical JSON: sorted keys, fixed indent, trailing newline."""
    return json.dumps(rows_to_payload(rows), indent=2, sort_keys=True) + "\n"


def rows_from_json(text: str) -> List[ChaosRow]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError("chaos results are not valid JSON: %s" % error)
    if not isinstance(payload, dict):
        raise ConfigurationError("chaos results must be a JSON object")
    return rows_from_payload(payload)


def save_chaos_rows(rows: Sequence[ChaosRow], path: str | Path) -> None:
    """Write a chaos sweep's rows in the canonical (golden-diffable) form."""
    Path(path).write_text(rows_to_json(rows))


def load_chaos_rows(path: str | Path) -> List[ChaosRow]:
    """Read rows previously written by :func:`save_chaos_rows`.

    Strict: unknown row fields or a version mismatch raise
    :class:`ConfigurationError`.
    """
    file_path = Path(path)
    if not file_path.exists():
        raise ConfigurationError("no chaos results file at %s" % file_path)
    return rows_from_json(file_path.read_text())


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


TABLE: Tuple[Tuple[str, Callable[[ChaosRow], object]], ...] = (
    ("algo", attrgetter("algorithm")),
    ("level", attrgetter("level")),
    ("rejoin", lambda row: "on" if row.recovery_enabled else "off"),
    ("eps", attrgetter("epsilon")),
    ("kB sent", lambda row: row.total_bytes / 1000.0),
    ("kB lost", lambda row: row.bytes_lost / 1000.0),
    ("blocked", attrgetter("messages_blocked")),
    ("detects", attrgetter("failures_detected")),
    ("recov", attrgetter("recoveries")),
    ("rec mean s", attrgetter("recovery_latency_mean_s")),
    ("worst-case s", attrgetter("worst_case_s")),
    ("resyncs", attrgetter("resyncs")),
    ("restarts", attrgetter("restarts")),
    ("replayed", attrgetter("tuples_replayed")),
    ("rejoin s", attrgetter("rejoin_latency_s")),
    ("dead ltrs", attrgetter("dead_letters")),
    ("xfer kB", lambda row: row.state_transfer_bytes / 1000.0),
    ("saved kB", lambda row: row.transfer_bytes_saved / 1000.0),
    ("fallbk", attrgetter("transfer_fallbacks")),
    ("shed", lambda row: row.shed_tuples + row.shed_messages),
    ("degr s", lambda row: row.throttled_seconds + row.shedding_seconds),
)
"""The printed sweep table: ``(header, value of a row)`` per column.  Kept
apart from :data:`COLUMNS` because it shows derived values (kB, on/off,
summed shed counts and degraded seconds), not the stored fields."""


def format_result(rows: Sequence[ChaosRow]) -> str:
    return format_table(
        [header for header, _ in TABLE],
        [[value(row) for _, value in TABLE] for row in rows],
    )


def format_recovery_comparison(
    baseline: Sequence[ChaosRow], recovered: Sequence[ChaosRow]
) -> str:
    """Per-cell epsilon reclaimed by the rejoin protocol.

    Pairs rows by (algorithm, level) and reports, for every cell that
    actually crashes a node, how much of the join error the recovery
    protocol won back (positive ``reclaimed`` = recovery helped).

    The per-run epsilons are *not* directly comparable: a legacy crash
    drops its local arrivals from the ground truth too (the oracle never
    observes them), so the no-recovery run is scored against a smaller
    truth.  Both cells are therefore re-measured here against the larger
    of the two truths -- the closest available stand-in for the full
    workload's pair count -- before differencing.
    """
    recovered_by_cell = {(row.algorithm, row.level): row for row in recovered}
    entries = []
    for row in baseline:
        match = recovered_by_cell.get((row.algorithm, row.level))
        if match is None or row.crash_count == 0:
            continue
        truth = max(row.truth_pairs, match.truth_pairs, 1)
        eps_off = abs(truth - row.reported_pairs) / truth
        eps_on = abs(truth - match.reported_pairs) / truth
        entries.append(
            (
                row.algorithm,
                row.level,
                eps_off,
                eps_on,
                eps_off - eps_on,
                match.restarts,
                match.tuples_replayed,
                match.rejoin_latency_s,
                match.state_transfer_bytes / 1000.0,
                match.transfer_bytes_saved / 1000.0,
            )
        )
    if not entries:
        return "no crash cells to compare (grid has no crash_count > 0 levels)"
    return format_table(
        [
            "algo",
            "level",
            "eps off",
            "eps on",
            "reclaimed",
            "restarts",
            "replayed",
            "rejoin s",
            "xfer kB",
            "saved kB",
        ],
        entries,
    )


def level_order(rows: Sequence[ChaosRow]) -> List[str]:
    """Grid levels in first-appearance order (the figure's x-axis)."""
    seen: List[str] = []
    for row in rows:
        if row.level not in seen:
            seen.append(row.level)
    return seen


def figure(rows: Sequence[ChaosRow]) -> str:
    """The accuracy-vs-failure-rate figure, as ASCII.

    Top panel: epsilon per algorithm across the fault grid (line chart,
    x = level index).  Bottom panel: bytes destroyed per level (grouped
    bars, one glyph per algorithm).
    """
    if not rows:
        raise ConfigurationError("nothing to plot")
    levels = level_order(rows)
    index = {name: i for i, name in enumerate(levels)}
    eps_series: Dict[str, List[Tuple[float, float]]] = {}
    lost_series: Dict[str, List[float]] = {}
    for row in rows:
        eps_series.setdefault(row.algorithm, []).append(
            (float(index[row.level]), row.epsilon)
        )
        lost_series.setdefault(row.algorithm, []).append(row.bytes_lost / 1000.0)
    lines = [
        "epsilon vs fault level (x: %s)"
        % ", ".join("%d=%s" % (i, name) for i, name in enumerate(levels)),
        "",
        line_chart(eps_series, y_label="epsilon"),
        "",
        "kilobytes destroyed by faults, per level",
        "",
        bar_chart(levels, lost_series, y_label="kB lost"),
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the baseline gate
# ----------------------------------------------------------------------


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


def compare_chaos(
    baseline: Sequence[ChaosRow],
    candidate: Sequence[ChaosRow],
    tolerance: float = 0.15,
) -> RegressionReport:
    """Match rows on their key columns and diff their compared columns.

    Workflow: save a sweep's rows with ``--out`` as the baseline; after
    changing the code, rerun the sweep with ``--baseline``.  Because chaos
    runs are byte-deterministic per seed + plan, a same-code comparison
    shows exactly zero drift; any nonzero drift is a real behavioural
    change.  A baseline cell the candidate lacks fails the gate; a
    candidate cell the baseline lacks is only reported.
    """
    if tolerance < 0:
        raise ConfigurationError("tolerance must be non-negative")
    key_of = attrgetter(*(column.name for column in COLUMNS if column.key))
    metrics = [column.name for column in COLUMNS if column.compared]
    baseline_by_key: Dict[Tuple, ChaosRow] = {}
    for row in baseline:
        key = key_of(row)
        if key in baseline_by_key:
            raise ConfigurationError("duplicate baseline chaos cell %r" % (key,))
        baseline_by_key[key] = row

    drifts: List[MetricDrift] = []
    matched = set()
    unmatched_candidate = []
    for row in candidate:
        key = key_of(row)
        reference = baseline_by_key.get(key)
        if reference is None:
            unmatched_candidate.append(key)
            continue
        matched.add(key)
        for metric in metrics:
            drifts.append(
                MetricDrift(
                    key=key,
                    metric=metric,
                    baseline=float(getattr(reference, metric)),
                    candidate=float(getattr(row, metric)),
                    tolerance=tolerance,
                )
            )
    unmatched_baseline = [key for key in baseline_by_key if key not in matched]
    return RegressionReport(
        drifts=drifts,
        unmatched_baseline=unmatched_baseline,
        unmatched_candidate=unmatched_candidate,
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.chaos",
        description="accuracy-vs-failure-rate sweep under injected faults",
    )
    parser.add_argument(
        "scale",
        nargs="?",
        default="default",
        choices=["smoke", "bench", "default", "full"],
    )
    parser.add_argument(
        "--fault-grid",
        default="",
        metavar="SPEC",
        help="';'-separated levels, e.g. 'clean; storm@loss=0.4,part=3s,crash=1' "
        "(default: the stock clean/light/moderate/severe grid)",
    )
    parser.add_argument(
        "--algorithms",
        default="",
        metavar="A,B,...",
        help="comma-separated algorithm subset (default: BASE,DFT,DFTT,BLOOM,SKCH)",
    )
    parser.add_argument(
        "--nodes",
        type=non_negative_int,
        default=0,
        help="mesh size (default: scale's largest)",
    )
    parser.add_argument(
        "--out", default="", metavar="FILE", help="persist the rows as JSON"
    )
    parser.add_argument(
        "--figure", default="", metavar="FILE", help="also write the ASCII figure"
    )
    parser.add_argument(
        "--recovery",
        action="store_true",
        help="comparison mode: run the grid twice -- restartable crashes "
        "with checkpoint/restart rejoin on vs the same outages without -- "
        "and report the epsilon each cell reclaims",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float_not_nan,
        default=0.0,
        metavar="SECONDS",
        help="checkpoint cadence for --recovery (default: the subsystem's)",
    )
    parser.add_argument(
        "--overload",
        action="store_true",
        help="arm overload protection in every cell: bounded service "
        "queues, the degradation ladder, deterministic shedding "
        "(pairs with over=F grid levels)",
    )
    parser.add_argument(
        "--queue-bound",
        type=int,
        default=0,
        metavar="N",
        help="per-node service-queue bound for --overload (default 64)",
    )
    parser.add_argument(
        "--jobs",
        type=non_negative_int,
        default=0,
        metavar="N",
        help="pool workers for the sweep (default: 1; "
        "results are byte-identical at any N)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell instead of reusing the run-result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default="",
        metavar="DIR",
        help="run-result cache location (default: REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--baseline",
        default="",
        metavar="FILE",
        help="regression-gate the sweep against previously saved rows",
    )
    parser.add_argument(
        "--tolerance",
        type=float_not_nan,
        default=None,
        help="relative drift tolerance for --baseline (default: 0.15)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        if args.queue_bound < 0:
            raise ConfigurationError("--queue-bound must be positive")
        if args.checkpoint_interval < 0:
            raise ConfigurationError("--checkpoint-interval must be non-negative")
        if args.checkpoint_interval and not args.recovery:
            raise ConfigurationError("--checkpoint-interval needs --recovery")
        # The regression inputs are read before the first cell runs, so a
        # bad baseline or tolerance costs no sweep.
        if args.tolerance is not None and not args.baseline:
            raise ConfigurationError("--tolerance needs --baseline")
        tolerance = 0.15 if args.tolerance is None else args.tolerance
        if tolerance < 0:
            raise ConfigurationError("--tolerance must be non-negative")
        reference_rows = load_chaos_rows(args.baseline) if args.baseline else None
        grid = parse_grid(args.fault_grid) if args.fault_grid else DEFAULT_GRID
        if args.algorithms:
            algorithms = tuple(
                Algorithm(name.strip().upper())
                for name in args.algorithms.split(",")
                if name.strip()
            )
        else:
            algorithms = COMPARED_ALGORITHMS
        progress = lambda text: print(text, file=sys.stderr)
        cache = resolve_cache(args.no_cache, args.cache_dir)
        protection = None
        if args.overload or args.queue_bound > 0:
            protection = OverloadSettings.for_queue_bound(
                args.queue_bound if args.queue_bound > 0 else 64
            )
        comparison = ""
        if args.recovery:
            overrides = {"enabled": True}
            if args.checkpoint_interval > 0:
                overrides["checkpoint_interval_s"] = args.checkpoint_interval
            rejoin = RecoverySettings(**overrides)
            baseline_rows = run(
                scale=args.scale,
                algorithms=algorithms,
                grid=grid,
                num_nodes=args.nodes,
                overload=protection,
                progress=lambda text: progress(text + " [no-recovery]"),
                jobs=args.jobs,
                cache=cache,
            )
            recovered_rows = run(
                scale=args.scale,
                algorithms=algorithms,
                grid=grid,
                num_nodes=args.nodes,
                recovery=rejoin,
                overload=protection,
                progress=lambda text: progress(text + " [recovery]"),
                jobs=args.jobs,
                cache=cache,
            )
            comparison = format_recovery_comparison(baseline_rows, recovered_rows)
            rows = baseline_rows + recovered_rows
            chart_rows = recovered_rows
        else:
            rows = run(
                scale=args.scale,
                algorithms=algorithms,
                grid=grid,
                num_nodes=args.nodes,
                overload=protection,
                progress=progress,
                jobs=args.jobs,
                cache=cache,
            )
            chart_rows = rows
        if cache is not None:
            print(cache.stats_line())
            cache.write_manifest({"sweep": "chaos", "scale": args.scale})
        print(format_result(rows))
        print()
        if comparison:
            print("epsilon reclaimed by checkpoint/restart recovery")
            print()
            print(comparison)
            print()
        chart = figure(chart_rows)
        print(chart)
        if args.out:
            save_chaos_rows(rows, args.out)
            print("\nsaved %d rows to %s" % (len(rows), args.out))
        if args.figure:
            with open(args.figure, "w") as handle:
                handle.write(chart + "\n")
            print("wrote figure to %s" % args.figure)
        if reference_rows is not None:
            report = compare_chaos(reference_rows, rows, tolerance=tolerance)
            print()
            print(report.format())
            if not report.passed:
                return 1
    except ValueError as error:
        # e.g. an unknown Algorithm name; argparse convention: exit 2.
        print("error: %s" % error, file=sys.stderr)
        return 2
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
