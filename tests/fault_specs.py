"""Writers for the fault-plan and chaos-grid text the parsers read.

The program only reads these forms (``--fault-plan`` specs and JSON
files, ``--fault-grid`` specs); the tests write them here so every
parser case can be stated as a round trip from a known value.
"""

import json


def event_dict(event):
    """One :class:`~repro.net.faults.FaultEvent` as a plan-file object;
    fields at their default are left out."""
    payload = {
        "kind": event.kind.value,
        "start_s": event.start_s,
        "duration_s": event.duration_s,
    }
    if event.nodes:
        payload["nodes"] = list(event.nodes)
    if event.links:
        payload["links"] = [list(pair) for pair in event.links]
    for name in ("loss_probability", "extra_latency_s", "downtime_s", "slowdown_factor"):
        if getattr(event, name):
            payload[name] = getattr(event, name)
    return payload


def plan_json(plan, indent=None):
    """A plan as the JSON array ``FaultPlan.from_json`` reads."""
    return json.dumps(
        [event_dict(event) for event in plan.events], indent=indent, sort_keys=True
    )


def event_spec(event):
    """One event in the compact grammar ``FaultPlan.parse`` reads."""
    parts = ["t=%r" % event.start_s, "d=%r" % event.duration_s]
    if event.downtime_s:
        parts.append("downtime=%r" % event.downtime_s)
    if event.nodes:
        parts.append("nodes=%s" % "+".join(str(n) for n in event.nodes))
    for source, destination in event.links:
        parts.append("link=%d-%d" % (source, destination))
    if event.loss_probability:
        parts.append("p=%r" % event.loss_probability)
    if event.extra_latency_s:
        parts.append("extra=%r" % event.extra_latency_s)
    if event.slowdown_factor:
        parts.append("factor=%r" % event.slowdown_factor)
    return "%s@%s" % (event.kind.value, ",".join(parts))


def plan_spec(plan):
    """A non-empty plan in the compact grammar."""
    return "; ".join(event_spec(event) for event in plan.events)


def level_spec(level):
    """One :class:`~repro.experiments.chaos.ChaosLevel` in the grammar
    ``ChaosLevel.parse`` reads."""
    parts = []
    if level.loss_probability:
        parts.append("loss=%r" % level.loss_probability)
    if level.partition_s:
        parts.append("part=%r" % level.partition_s)
    if level.crash_count:
        parts.append("crash=%d" % level.crash_count)
    if level.overload_factor:
        parts.append("over=%r" % level.overload_factor)
    if not parts:
        return level.name
    return "%s@%s" % (level.name, ",".join(parts))


def grid_spec(grid):
    """A fault grid in the grammar ``parse_grid`` reads."""
    return "; ".join(level_spec(level) for level in grid)
