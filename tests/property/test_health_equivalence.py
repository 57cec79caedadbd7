"""The one-pass health check answers what the per-question body answered.

``PeerHealthMonitor.degrade`` reads each peer's summary age once, finds
its histogram bucket with ``bisect_left`` and calls ``is_suspected`` only
past the suspect timeout.  ``tests/reference_health.py`` holds the body
it replaced (``observe_staleness``, ``is_suspected`` and ``is_stale`` per
peer).  Here two monitors live the same random history -- heard,
summaries, restarts and decisions on a quarter-second grid, so ages land
exactly on bucket edges, the staleness budget and the suspect timeout --
and every answer, counter, histogram bucket, suspicion and emitted event
must be ``==``, in both degradation modes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.health import STALENESS_BUCKETS_S, SUSPECT_TIMEOUT_S, PeerHealthMonitor
from repro.net.reliable import ReliabilitySettings
from tests.reference_health import reference_degrade

PEERS = (1, 2, 3, 5)

steps = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 2.25, 5.0, 5.25, 10.0])
budgets = st.sampled_from((0.0, 0.25) + STALENESS_BUCKETS_S + (SUSPECT_TIMEOUT_S, 7.5))
ops = st.lists(
    st.one_of(
        st.tuples(st.just("heard"), st.sampled_from(PEERS + (9,))),
        st.tuples(st.just("summary"), st.sampled_from(PEERS + (9,))),
        st.tuples(st.just("restart")),
        st.tuples(st.just("decide"), st.lists(st.sampled_from(PEERS), unique=True)),
        st.tuples(st.just("wait"), steps),
    ),
    max_size=60,
)


class RecordingHub:
    def __init__(self):
        self.events = []

    def emit(self, name, **fields):
        self.events.append((name, fields))


def make_monitor(budget, mode):
    recovered = []
    monitor = PeerHealthMonitor(
        node_id=0,
        peer_ids=PEERS,
        settings=ReliabilitySettings(
            enabled=True, staleness_budget_s=budget, degradation_mode=mode
        ),
        on_recovery=recovered.append,
    )
    monitor.telemetry = RecordingHub()
    return monitor, recovered


def observed(monitor, recovered):
    return (
        list(monitor.staleness_histogram),
        monitor.suppressed_sends,
        monitor.forced_broadcast_sends,
        monitor.failures_detected,
        monitor.recoveries,
        list(monitor.recovery_latencies),
        dict(monitor._suspected_at),
        dict(monitor._last_heard),
        dict(monitor._last_summary),
        monitor.telemetry.events,
        recovered,
        monitor.counters(),
    )


@settings(max_examples=400, deadline=None)
@given(
    budget=budgets,
    mode=st.sampled_from(["broadcast", "suppress"]),
    ops=ops,
)
def test_one_pass_equals_the_reference(budget, mode, ops):
    fused, fused_recovered = make_monitor(budget, mode)
    reference, reference_recovered = make_monitor(budget, mode)
    now = 0.0
    for op in ops:
        if op[0] == "wait":
            now += op[1]
        elif op[0] == "heard":
            fused.heard(op[1], now)
            reference.heard(op[1], now)
        elif op[0] == "summary":
            fused.summary_received(op[1], now)
            reference.summary_received(op[1], now)
        elif op[0] == "restart":
            fused.note_restart(now)
            reference.note_restart(now)
        else:
            chosen = fused.degrade(list(op[1]), PEERS, now)
            assert chosen == reference_degrade(reference, list(op[1]), PEERS, now)
        assert observed(fused, fused_recovered) == observed(
            reference, reference_recovered
        )
    # One last decision after a long silence: everyone suspected.
    now += SUSPECT_TIMEOUT_S + 0.25
    assert fused.degrade(list(PEERS), PEERS, now) == reference_degrade(
        reference, list(PEERS), PEERS, now
    )
    assert observed(fused, fused_recovered) == observed(reference, reference_recovered)


def test_edges_fall_in_the_bucket_they_close():
    """An age equal to an edge counts in that edge's bucket, one past the
    last edge in the open one."""
    monitor, _ = make_monitor(0.0, "broadcast")
    reference, _ = make_monitor(0.0, "broadcast")
    for age in STALENESS_BUCKETS_S + (0.0, 0.25, STALENESS_BUCKETS_S[-1] + 0.25):
        for target in (monitor, reference):
            target.note_restart(0.0)
            target._last_heard = {peer: age for peer in PEERS}
        monitor.degrade([], PEERS, age)
        reference_degrade(reference, [], PEERS, age)
    assert monitor.staleness_histogram == reference.staleness_histogram
    assert monitor.staleness_histogram == [12, 4, 4, 4, 4, 4]
