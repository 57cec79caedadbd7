"""The injector's edge-rewritten tables answer what the scans answered.

``FaultInjector`` rewrites its per-link verdicts, crashed-node sets and
service factors at each activation and deactivation edge, and its six
queries look the answer up.  That is only admissible because no query can
tell: every assertion here is ``==`` plus ``type`` against
``tests/reference_faults.py`` (the six scanning bodies), never ``approx``,
for every ordered pair and node of the mesh, at each edge, just before it
and just after it.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.net.simulator import EventScheduler
from tests.reference_faults import ReferenceFaultInjector

NUM_NODES = 4

# A coarse time grid, so windows overlap and edges coincide often.
starts = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
durations = st.sampled_from([0.5, 1.0, 1.5, 2.5])
# Repeats allowed: a node listed twice is still covered once per event.
node_groups = (
    st.lists(st.integers(min_value=0, max_value=NUM_NODES - 1), min_size=1, max_size=4)
    .filter(lambda nodes: len(set(nodes)) < NUM_NODES)
    .map(tuple)
)
links = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_NODES - 1),
        st.integers(min_value=0, max_value=NUM_NODES - 1),
    ).filter(lambda pair: pair[0] != pair[1]),
    max_size=3,
    unique=True,
).map(tuple)
# Values whose float sums and products depend on the order they run in.
probabilities = st.sampled_from([0.1, 0.3, 0.7, 1 / 3, 1.0])
extras = st.sampled_from([0.1, 0.2, 0.3, 1e-17])
factors = st.sampled_from([1.1, 3.0, 7.3, 1 / 0.3])


@st.composite
def fault_events(draw):
    kind = draw(st.sampled_from(list(FaultKind)))
    start, duration = draw(starts), draw(durations)
    if kind is FaultKind.LOSS_BURST:
        return FaultEvent(
            kind, start, duration, links=draw(links), loss_probability=draw(probabilities)
        )
    if kind is FaultKind.LATENCY_SPIKE:
        return FaultEvent(
            kind, start, duration, links=draw(links), extra_latency_s=draw(extras)
        )
    if kind is FaultKind.LINK_OUTAGE:
        return FaultEvent(
            kind, start, duration, links=draw(links.filter(bool))
        )
    if kind is FaultKind.PARTITION:
        return FaultEvent(kind, start, duration, nodes=draw(node_groups))
    if kind is FaultKind.NODE_CRASH:
        downtime = draw(st.sampled_from([0.0, 0.5, 1.5]))
        return FaultEvent(
            kind, start, duration, nodes=draw(node_groups), downtime_s=downtime
        )
    return FaultEvent(
        kind, start, duration, nodes=draw(node_groups), slowdown_factor=draw(factors)
    )


@st.composite
def fault_plans(draw):
    events = draw(st.lists(fault_events(), min_size=1, max_size=6))
    # Two equal events: ``list.remove`` takes the first at either's end.
    for index in draw(st.lists(st.integers(0, len(events) - 1), max_size=2)):
        events.append(events[index])
    plan = FaultPlan.from_events(draw(st.permutations(events)))
    plan.validate(NUM_NODES)
    return plan


def answers(injector):
    """Every query over the whole mesh, each answer with its type."""
    mesh = range(NUM_NODES)
    out = []
    for node in mesh:
        for value in (
            injector.node_down(node),
            injector.restartable_down(node),
            injector.service_factor(node),
        ):
            out.append((value, type(value)))
    for source in mesh:
        for destination in mesh:
            for value in (
                injector.link_blocked(source, destination),
                injector.extra_loss(source, destination),
                injector.extra_latency(source, destination),
            ):
                out.append((value, type(value)))
    return out


def probe_times(plan):
    edges = {time for event in plan.events for time in (event.start_s, event.end_s)}
    times = set()
    for edge in edges:
        times.update((edge, math.nextafter(edge, math.inf)))
        if edge > 0:
            times.add(math.nextafter(edge, -math.inf))
    return sorted(times)


@settings(max_examples=150, deadline=None)
@given(plan=fault_plans())
def test_table_answers_equal_the_scans_at_and_around_every_edge(plan):
    scheduler = EventScheduler()
    ours = FaultInjector(plan, NUM_NODES)
    reference = ReferenceFaultInjector(plan, NUM_NODES)
    ours.install(scheduler)
    reference.install(scheduler)
    mismatches = []

    def compare(time):
        # Scheduled after both installs: runs after every edge at ``time``.
        if answers(ours) != answers(reference):
            mismatches.append(time)

    compare(-1.0)
    for time in probe_times(plan):
        scheduler.schedule_at(time, lambda t=time: compare(t))
    scheduler.run()
    compare(math.inf)
    assert mismatches == []
    assert ours.activations == reference.activations


def test_identical_events_and_a_restartable_crash_agree_mid_window():
    """The plan shapes the strategy must reach, pinned once by hand."""
    loss = FaultEvent(FaultKind.LOSS_BURST, 1.0, 2.0, loss_probability=0.3)
    crash = FaultEvent(FaultKind.NODE_CRASH, 1.5, 1.0, nodes=(2,), downtime_s=1.5)
    plan = FaultPlan.from_events(
        [
            loss,
            FaultEvent(FaultKind.LATENCY_SPIKE, 0.5, 3.0, extra_latency_s=0.1),
            loss,
            crash,
            FaultEvent(FaultKind.OVERLOAD, 1.0, 1.0, nodes=(0, 2), slowdown_factor=3.0),
            FaultEvent(FaultKind.LATENCY_SPIKE, 1.0, 1.0, links=((0, 1),), extra_latency_s=0.2),
        ]
    )
    scheduler = EventScheduler()
    ours = FaultInjector(plan, NUM_NODES)
    reference = ReferenceFaultInjector(plan, NUM_NODES)
    ours.install(scheduler)
    reference.install(scheduler)
    seen = []
    scheduler.schedule_at(
        1.75, lambda: seen.append((answers(ours), answers(reference), ours.link_faults))
    )
    scheduler.run()
    ours_then, reference_then, table = seen[0]
    assert ours_then == reference_then
    assert table[0, 1][0] == 0.1 + 0.2
    assert table[0, 1][2] == 1.0 - (1.0 - 0.3) * (1.0 - 0.3)
    assert table[0, 2][1] and table[2, 0][1]
