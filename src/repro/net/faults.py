"""Deterministic fault injection for the simulated WAN.

The paper's protocols are evaluated on an emulated WAN whose links are
*reliable*; real 20-100 ms / 90 kbps paths are not.  This module injects
the classic WAN fault classes against the :class:`~repro.net.simulator.
EventScheduler` so the control loop's robustness can be measured:

* **loss burst** -- extra per-message drop probability on selected links;
* **link outage** -- selected directed links black-hole everything;
* **partition** -- a node group is cut off from the rest (both ways);
* **latency spike** -- extra propagation delay (a gray failure);
* **node crash/restart** -- a node goes dark: its local arrivals are
  discarded and messages to or from it are dropped until it restarts;
* **overload** -- a node's service times are multiplied by a slowdown
  factor (equivalently: its input surges past its capacity), exercising
  the :mod:`repro.overload` degradation ladder.

A :class:`FaultPlan` is a static, validated set of :class:`FaultEvent`
windows -- pure data, no randomness -- so an identical seed plus an
identical plan reproduces a run bit-for-bit.  The :class:`FaultInjector`
schedules the activation/deactivation edges, rewrites its per-link and
per-node answer tables at each, and answers point queries from
:class:`~repro.net.link.Link` and the node runtime out of those tables.

Plans can be written inline, loaded from JSON, or spelled as compact
preset specs (``partition@t=10s,d=5s``); see :meth:`FaultPlan.parse`.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.simulator import EventScheduler


class FaultKind(enum.Enum):
    """The injectable fault classes."""

    LOSS_BURST = "loss_burst"
    LINK_OUTAGE = "link_outage"
    PARTITION = "partition"
    LATENCY_SPIKE = "latency_spike"
    NODE_CRASH = "node_crash"
    OVERLOAD = "overload"


_FIELD_READERS: Dict[str, Tuple[FaultKind, ...]] = {
    "nodes": (FaultKind.PARTITION, FaultKind.NODE_CRASH, FaultKind.OVERLOAD),
    "links": (FaultKind.LOSS_BURST, FaultKind.LINK_OUTAGE, FaultKind.LATENCY_SPIKE),
    "loss_probability": (FaultKind.LOSS_BURST,),
    "extra_latency_s": (FaultKind.LATENCY_SPIKE,),
    "downtime_s": (FaultKind.NODE_CRASH,),
    "slowdown_factor": (FaultKind.OVERLOAD,),
}
"""The kinds that read each optional :class:`FaultEvent` field; any other
kind must leave the field at its default."""

_FINITE_FIELDS = (
    "start_s",
    "duration_s",
    "loss_probability",
    "extra_latency_s",
    "downtime_s",
    "slowdown_factor",
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault window: a kind active on ``[start_s, start_s + duration_s)``.

    ``nodes`` selects crash targets (NODE_CRASH) or one side of the cut
    (PARTITION); ``links`` selects directed links (LINK_OUTAGE, and
    optionally LOSS_BURST / LATENCY_SPIKE -- empty means every link).
    """

    kind: FaultKind
    start_s: float
    duration_s: float
    nodes: Tuple[int, ...] = ()
    links: Tuple[Tuple[int, int], ...] = ()
    loss_probability: float = 0.0
    extra_latency_s: float = 0.0
    downtime_s: float = 0.0
    """NODE_CRASH only: when positive, the crash is *restartable* -- the
    outage lasts ``downtime_s`` (overriding ``duration_s``) and the node
    rejoins through the :mod:`repro.recovery` protocol instead of
    silently resuming with its pre-crash state."""

    slowdown_factor: float = 0.0
    """OVERLOAD only: multiplier (> 1) applied to the listed nodes'
    service times while the window is active."""

    @property
    def restartable(self) -> bool:
        """Whether this crash restarts through the recovery protocol."""
        return self.kind is FaultKind.NODE_CRASH and self.downtime_s > 0

    @property
    def end_s(self) -> float:
        if self.restartable:
            return self.start_s + self.downtime_s
        return self.start_s + self.duration_s

    def validate(self, num_nodes: Optional[int] = None) -> None:
        for name in _FINITE_FIELDS:
            # inf overflows the scheduler's arithmetic and NaN compares
            # false with every bound below, so neither reaches a run.
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    "fault %s must be finite, got %r" % (name, getattr(self, name))
                )
        if self.start_s < 0:
            raise ConfigurationError("fault start_s must be non-negative")
        if self.duration_s <= 0:
            raise ConfigurationError("fault duration_s must be positive")
        for name, kinds in _FIELD_READERS.items():
            # A field the kind never reads would be dropped silently: a
            # loss burst given ``nodes`` still covers every link.
            if getattr(self, name) and self.kind not in kinds:
                raise ConfigurationError(
                    "%s is only valid for %s"
                    % (name, ", ".join(kind.name for kind in kinds))
                )
        if self.kind is FaultKind.NODE_CRASH and not self.nodes:
            raise ConfigurationError("NODE_CRASH requires at least one node")
        if self.kind is FaultKind.PARTITION and not self.nodes:
            raise ConfigurationError("PARTITION requires a non-empty node group")
        if self.kind is FaultKind.LINK_OUTAGE and not self.links:
            raise ConfigurationError("LINK_OUTAGE requires at least one link")
        if self.kind is FaultKind.LOSS_BURST and not (
            0.0 < self.loss_probability <= 1.0
        ):
            raise ConfigurationError("LOSS_BURST requires loss_probability in (0, 1]")
        if self.kind is FaultKind.LATENCY_SPIKE and self.extra_latency_s <= 0:
            raise ConfigurationError("LATENCY_SPIKE requires extra_latency_s > 0")
        if self.kind is FaultKind.OVERLOAD:
            if not self.nodes:
                raise ConfigurationError("OVERLOAD requires at least one node")
            if self.slowdown_factor <= 1.0:
                raise ConfigurationError("OVERLOAD requires slowdown_factor > 1")
        if self.downtime_s < 0:
            raise ConfigurationError("fault downtime_s must be non-negative")
        for source, destination in self.links:
            if source == destination:
                raise ConfigurationError("fault link %d->%d is a self-loop" % (source, destination))
        if num_nodes is not None:
            for node in self.nodes:
                if not 0 <= node < num_nodes:
                    raise ConfigurationError(
                        "fault references node %d outside [0, %d)" % (node, num_nodes)
                    )
            for source, destination in self.links:
                if not (0 <= source < num_nodes and 0 <= destination < num_nodes):
                    raise ConfigurationError(
                        "fault references link %d->%d outside [0, %d)"
                        % (source, destination, num_nodes)
                    )
            if self.kind is FaultKind.PARTITION and len(set(self.nodes)) >= num_nodes:
                raise ConfigurationError(
                    "PARTITION group must leave at least one node on the other side"
                )

    def affects_link(self, source: int, destination: int) -> bool:
        """Whether this event's link selector covers ``source -> destination``."""
        if self.kind is FaultKind.PARTITION:
            return (source in self.nodes) != (destination in self.nodes)
        if self.kind is FaultKind.NODE_CRASH:
            return source in self.nodes or destination in self.nodes
        if self.kind is FaultKind.OVERLOAD:
            return False
        if not self.links:
            return True
        return (source, destination) in self.links

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultEvent":
        try:
            kind = FaultKind(payload["kind"])
        except (KeyError, ValueError) as error:
            raise ConfigurationError("fault event needs a valid 'kind': %s" % error)
        try:
            event = cls(
                kind=kind,
                start_s=float(payload["start_s"]),
                duration_s=float(payload["duration_s"]),
                nodes=tuple(int(n) for n in payload.get("nodes", ())),
                links=tuple(
                    (int(pair[0]), int(pair[1])) for pair in payload.get("links", ())
                ),
                loss_probability=float(payload.get("loss_probability", 0.0)),
                extra_latency_s=float(payload.get("extra_latency_s", 0.0)),
                downtime_s=float(payload.get("downtime_s", 0.0)),
                slowdown_factor=float(payload.get("slowdown_factor", 0.0)),
            )
        except (KeyError, TypeError, ValueError, IndexError) as error:
            raise ConfigurationError("malformed fault event %r: %s" % (payload, error))
        event.validate()
        return event


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault windows (empty by default)."""

    events: Tuple[FaultEvent, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.events

    def validate(self, num_nodes: Optional[int] = None) -> None:
        for event in self.events:
            event.validate(num_nodes)

    @classmethod
    def from_events(cls, events: Sequence[FaultEvent]) -> "FaultPlan":
        return cls(events=tuple(events))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a JSON array of event objects.

        Each object names the :class:`FaultEvent` fields it sets, with the
        kind by value: ``{"kind": "node_crash", "start_s": 3,
        "duration_s": 2, "nodes": [1]}``; an absent field keeps its default.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError("fault plan is not valid JSON: %s" % error)
        if not isinstance(payload, list):
            raise ConfigurationError("fault plan JSON must be a list of events")
        return cls.from_events([FaultEvent.from_dict(item) for item in payload])

    @classmethod
    def parse(cls, spec: str, num_nodes: Optional[int] = None) -> "FaultPlan":
        """Parse a compact spec string (``;``-separated preset events).

        Each event is ``kind@key=value,...`` with seconds accepted as bare
        numbers or with an ``s`` suffix:

        * ``partition@t=10s,d=5s[,nodes=0+1]`` -- cut the listed group (or
          the first half of the mesh) off from the rest;
        * ``outage@t=5,d=2,link=0-1[,link=1-0]`` -- black-hole links;
        * ``crash@t=10,d=5,node=2`` -- crash node 2, restart 5 s later;
        * ``crash@t=10,node=2,downtime=5`` -- restartable crash: node 2
          is down 5 s, then rejoins via checkpoint recovery;
        * ``latency@t=5,d=3,extra=0.5`` -- +500 ms on every link;
        * ``loss@t=5,d=3,p=0.3`` -- 30 % extra drop chance on every link;
        * ``overload@t=5,d=3,node=2,factor=4`` -- node 2's service times
          are 4x for 3 s (an arrival surge past its capacity).
        """
        events = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if chunk:
                events.append(_parse_event_spec(chunk, num_nodes))
        if not events:
            raise ConfigurationError("fault plan spec %r contains no events" % spec)
        plan = cls.from_events(events)
        plan.validate(num_nodes)
        return plan


_SPEC_KINDS = {
    "loss": FaultKind.LOSS_BURST,
    "loss_burst": FaultKind.LOSS_BURST,
    "outage": FaultKind.LINK_OUTAGE,
    "link_outage": FaultKind.LINK_OUTAGE,
    "partition": FaultKind.PARTITION,
    "latency": FaultKind.LATENCY_SPIKE,
    "latency_spike": FaultKind.LATENCY_SPIKE,
    "crash": FaultKind.NODE_CRASH,
    "node_crash": FaultKind.NODE_CRASH,
    "overload": FaultKind.OVERLOAD,
}

_DEFAULT_DURATION_S = 5.0

_SCALAR_KEYS = frozenset({"t", "d", "p", "extra", "downtime", "factor"})
"""Spec keys that set one value; ``node`` / ``nodes`` / ``link`` repeat."""


def _parse_seconds(value: str) -> float:
    text = value.strip().lower()
    if text.endswith("s"):
        text = text[:-1]
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError("cannot parse %r as seconds" % value)


def _parse_event_spec(chunk: str, num_nodes: Optional[int]) -> FaultEvent:
    name, _, arg_text = chunk.partition("@")
    kind = _SPEC_KINDS.get(name.strip().lower())
    if kind is None:
        raise ConfigurationError(
            "unknown fault kind %r (expected one of %s)"
            % (name, ", ".join(sorted(set(_SPEC_KINDS))))
        )
    start = None
    duration = _DEFAULT_DURATION_S
    nodes: List[int] = []
    links: List[Tuple[int, int]] = []
    loss = 0.0
    extra_latency = 0.0
    downtime = 0.0
    factor = 0.0
    seen = set()
    for pair in filter(None, (p.strip() for p in arg_text.split(","))):
        key, eq, value = pair.partition("=")
        if not eq:
            raise ConfigurationError("malformed fault argument %r in %r" % (pair, chunk))
        key = key.strip().lower()
        if key in _SCALAR_KEYS:
            # Only the selectors accumulate; a repeated scalar would
            # silently keep its last value.
            if key in seen:
                raise ConfigurationError("fault argument %r given twice in %r" % (key, chunk))
            seen.add(key)
        if key == "t":
            start = _parse_seconds(value)
        elif key == "d":
            duration = _parse_seconds(value)
        elif key == "node":
            nodes.append(_parse_int(value, chunk))
        elif key == "nodes":
            nodes.extend(_parse_int(v, chunk) for v in value.split("+"))
        elif key == "link":
            ends = value.split("-")
            if len(ends) != 2:
                raise ConfigurationError("link spec %r must be 'src-dst'" % value)
            links.append((_parse_int(ends[0], chunk), _parse_int(ends[1], chunk)))
        elif key == "p":
            loss = _parse_float(value, chunk)
        elif key == "extra":
            extra_latency = _parse_seconds(value)
        elif key == "downtime":
            downtime = _parse_seconds(value)
        elif key == "factor":
            factor = _parse_float(value, chunk)
        else:
            raise ConfigurationError("unknown fault argument %r in %r" % (key, chunk))
    if start is None:
        raise ConfigurationError("fault spec %r is missing its start time t=" % chunk)
    if kind is FaultKind.PARTITION and not nodes:
        if num_nodes is None:
            raise ConfigurationError(
                "partition spec %r needs nodes=... when the mesh size is unknown" % chunk
            )
        nodes = list(range(num_nodes // 2))
    if kind is FaultKind.LOSS_BURST and loss == 0.0:
        loss = 0.5
    if kind is FaultKind.LATENCY_SPIKE and extra_latency == 0.0:
        extra_latency = 0.5
    if kind is FaultKind.OVERLOAD and factor == 0.0:
        factor = 4.0
    event = FaultEvent(
        kind=kind,
        start_s=start,
        duration_s=duration,
        nodes=tuple(nodes),
        links=tuple(links),
        loss_probability=loss,
        extra_latency_s=extra_latency,
        downtime_s=downtime,
        slowdown_factor=factor,
    )
    event.validate(num_nodes)
    return event


def _parse_int(value: str, context: str) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise ConfigurationError("cannot parse %r as a node id in %r" % (value, context))


def _parse_float(value: str, context: str) -> float:
    try:
        return float(value.strip())
    except ValueError:
        raise ConfigurationError("cannot parse %r as a number in %r" % (value, context))


def load_fault_plan(source: str, num_nodes: Optional[int] = None) -> FaultPlan:
    """Resolve ``source`` into a plan: a JSON/spec file path or a spec string.

    A path ending in ``.json`` (or whose contents start with ``[``) is
    parsed as JSON; anything else goes through :meth:`FaultPlan.parse`.
    A ``.json`` source that names no file is an error that names it.
    """
    from pathlib import Path

    path = Path(source)
    try:
        is_file = path.is_file()
    except OSError:
        is_file = False
    if is_file:
        text = path.read_text()
        if source.endswith(".json") or text.lstrip().startswith("["):
            plan = FaultPlan.from_json(text)
        else:
            plan = FaultPlan.parse(text, num_nodes)
        plan.validate(num_nodes)
        return plan
    if source.endswith(".json"):
        raise ConfigurationError("fault plan file not found: %s" % source)
    return FaultPlan.parse(source, num_nodes)


LinkVerdict = Tuple[float, bool, float]
"""What the active faults do to one directed link: (extra propagation
delay, severed, extra drop probability)."""

IDLE_LINK: LinkVerdict = (0, False, 0.0)
"""The verdict of a link no active event covers.  The delay is the int
``0`` a ``sum`` over no events returns."""

_SEVERING_KINDS = (FaultKind.LINK_OUTAGE, FaultKind.PARTITION, FaultKind.NODE_CRASH)


def _link_verdict(
    active: Sequence[FaultEvent], source: int, destination: int
) -> LinkVerdict:
    """One link's verdict, scanned over ``active`` in order: the latency
    ``sum`` and the loss survival product run event by event, so the
    float result is the one a per-send scan would give."""
    extra_latency = sum(
        event.extra_latency_s
        for event in active
        if event.kind is FaultKind.LATENCY_SPIKE
        and event.affects_link(source, destination)
    )
    blocked = any(
        event.kind in _SEVERING_KINDS and event.affects_link(source, destination)
        for event in active
    )
    survival = 1.0
    for event in active:
        if event.kind is FaultKind.LOSS_BURST and event.affects_link(
            source, destination
        ):
            survival *= 1.0 - event.loss_probability
    return extra_latency, blocked, 1.0 - survival


class FaultInjector:
    """Executes a :class:`FaultPlan` against a scheduler and answers
    point-in-time queries from the network layer.

    Activation and deactivation are plain scheduled events, so the whole
    fault timeline participates in the simulator's deterministic ordering.
    The answers change only at those edges, so each edge rewrites three
    tables from the active events -- the per-link verdicts, the crashed
    nodes and the per-node service factors -- and a query is a lookup.
    """

    def __init__(self, plan: FaultPlan, num_nodes: int) -> None:
        plan.validate(num_nodes)
        self.plan = plan
        self.num_nodes = num_nodes
        self._active: List[FaultEvent] = []
        self.messages_blocked = 0
        self.activations: Dict[str, int] = {}
        self.link_faults: Dict[Tuple[int, int], LinkVerdict] = {}
        """``(source, destination) -> verdict`` for every mesh link an
        active event covers; a link that is absent is :data:`IDLE_LINK`.
        Replaced (never mutated) at each edge, so :class:`~repro.net.link.
        Link` reads it through the injector at every send."""
        self._crashed: FrozenSet[int] = frozenset()
        self._restartable: FrozenSet[int] = frozenset()
        self._service_factors: Dict[int, float] = {}
        self._rebuild()

    def install(self, scheduler: EventScheduler) -> None:
        """Schedule every activation/deactivation edge of the plan."""
        for event in self.plan.events:
            scheduler.schedule_at(event.start_s, lambda e=event: self._activate(e))
            scheduler.schedule_at(event.end_s, lambda e=event: self._deactivate(e))

    def _activate(self, event: FaultEvent) -> None:
        self._active.append(event)
        self.activations[event.kind.value] = self.activations.get(event.kind.value, 0) + 1
        self._rebuild()

    def _deactivate(self, event: FaultEvent) -> None:
        self._active.remove(event)
        self._rebuild()

    def _rebuild(self) -> None:
        """Rewrite the three tables from the active events."""
        active = tuple(self._active)
        self._crashed = frozenset(
            node
            for event in active
            if event.kind is FaultKind.NODE_CRASH
            for node in event.nodes
        )
        self._restartable = frozenset(
            node for event in active if event.restartable for node in event.nodes
        )
        factors: Dict[int, float] = {}
        for event in active:  # the product runs in activation order
            if event.kind is FaultKind.OVERLOAD:
                for node in set(event.nodes):
                    factors[node] = factors.get(node, 1.0) * event.slowdown_factor
        self._service_factors = factors
        mesh = range(self.num_nodes)
        self.link_faults = {
            (source, destination): _link_verdict(active, source, destination)
            for source in mesh
            for destination in mesh
            if any(event.affects_link(source, destination) for event in active)
        }

    # ------------------------------------------------------------------
    # point queries (the node runtime and delivery ask; a send reads
    # ``link_faults`` itself)
    # ------------------------------------------------------------------

    def node_down(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently crashed."""
        return node_id in self._crashed

    def restartable_down(self, node_id: int) -> bool:
        """Whether ``node_id`` is down under a *restartable* crash.

        Restartable crashes (``downtime_s > 0``) take the recovery path:
        local arrivals are logged for replay instead of being discarded.
        """
        return node_id in self._restartable

    def link_blocked(self, source: int, destination: int) -> bool:
        """Whether the directed link is severed (outage, partition, crash)."""
        return self.link_faults.get((source, destination), IDLE_LINK)[1]

    def extra_loss(self, source: int, destination: int) -> float:
        """Additional drop probability currently applied to the link."""
        return self.link_faults.get((source, destination), IDLE_LINK)[2]

    def service_factor(self, node_id: int) -> float:
        """Multiplier currently applied to ``node_id``'s service times.

        The product over active OVERLOAD windows covering the node;
        1.0 when none are active.
        """
        return self._service_factors.get(node_id, 1.0)

    def extra_latency(self, source: int, destination: int) -> float:
        """Additional propagation delay currently applied to the link."""
        return self.link_faults.get((source, destination), IDLE_LINK)[0]

    def note_blocked(self) -> None:
        """Called by the link layer when a message died to an active fault."""
        self.messages_blocked += 1

    def summary(self) -> Dict[str, float]:
        """Flat counters for result reporting."""
        counters: Dict[str, float] = {
            "fault_events": float(len(self.plan.events)),
            "messages_blocked": float(self.messages_blocked),
        }
        for kind, count in sorted(self.activations.items()):
            counters["activations_%s" % kind] = float(count)
        return counters
