"""Property-based tests for the event scheduler and ground truth."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.join.ground_truth import GroundTruthOracle
from repro.net.simulator import EventScheduler
from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import CountWindow


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=100))
@settings(max_examples=60)
def test_events_fire_in_nondecreasing_time_order(times):
    scheduler = EventScheduler()
    fired = []
    for time in times:
        scheduler.schedule_at(time, lambda t=time: fired.append(scheduler.now))
    scheduler.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=50))
@settings(max_examples=40)
def test_clock_never_goes_backwards(delays):
    scheduler = EventScheduler()
    observed = []

    def observe():
        observed.append(scheduler.now)

    for delay in delays:
        scheduler.schedule_in(delay, observe)
    scheduler.run()
    assert observed == sorted(observed)


class ListScheduler:
    """The ordering contract, executably: pending events in a plain list,
    the next one is the ``min`` by ``(time, phase, rank, seq, insertion)``."""

    class Handle:
        def __init__(self, key, callback):
            self.key = key
            self.callback = callback
            self.cancelled = False

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.now = 0.0
        self._pending = []
        self._unkeyed = 0
        self._insertions = 0

    def schedule_in(self, delay, callback, key=None):
        if key is None:
            phase, rank, seq = 0, 0, self._unkeyed
            self._unkeyed += 1
        else:
            phase, (rank, seq) = 1, key
        handle = self.Handle(
            (self.now + delay, phase, rank, seq, self._insertions), callback
        )
        self._insertions += 1
        self._pending.append(handle)
        return handle

    def run(self):
        while self._pending:
            handle = min(self._pending, key=lambda pending: pending.key)
            self._pending.remove(handle)
            if not handle.cancelled:
                self.now = handle.key[0]
                handle.callback()


class Scripted:
    """One scripted callback: logs its label, schedules its children and
    cancels its victim.  Ordering it against another callback is an error,
    so a heap comparison that falls through to the payload fails the test."""

    def __init__(self, scheduler, label, children, victim, handles, log):
        self.scheduler = scheduler
        self.label = label
        self.children = children
        self.victim = victim
        self.handles = handles
        self.log = log

    def __call__(self):
        self.log.append(self.label)
        for index, (delay, key) in enumerate(self.children):
            child = Scripted(
                self.scheduler, self.label + (index,), (), None, self.handles, self.log
            )
            self.handles[child.label] = self.scheduler.schedule_in(delay, child, key=key)
        if self.victim is not None:
            label = sorted(self.handles)[self.victim % len(self.handles)]
            if label not in self.log:  # cancelling a fired event is not a case
                self.handles[label].cancel()

    def __lt__(self, other):
        raise AssertionError("the heap compared two callbacks")

    __gt__ = __le__ = __ge__ = __lt__


# Three times, three ranks and three seqs over up to 25 events: tied
# times and duplicate full keys in almost every example.
event_keys = st.one_of(
    st.none(), st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
)
scripts = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]),
        event_keys,
        st.booleans(),
        st.lists(st.tuples(st.sampled_from([0.0, 0.5]), event_keys), max_size=2),
        st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    ),
    max_size=25,
)


def play(scheduler, script):
    """Schedule ``script`` on ``scheduler``, run it, return the firing log."""
    log = []
    handles = {}
    for index, (time, key, cancel, children, victim) in enumerate(script):
        root = Scripted(scheduler, (index,), children, victim, handles, log)
        handles[root.label] = scheduler.schedule_in(time, root, key=key)
        if cancel:
            handles[root.label].cancel()
    scheduler.run()
    return log, handles


@given(scripts)
@settings(max_examples=200)
def test_firing_order_is_the_key_order_with_insertion_order_between_equals(script):
    """Keyed and unkeyed events, tied times, duplicate full keys,
    cancellations before and during the run, callbacks that schedule more
    events: the heap fires what the sort-key contract says, in its order."""
    scheduler = EventScheduler()
    log, handles = play(scheduler, script)
    expected, _ = play(ListScheduler(), script)
    assert log == expected
    # Events scheduled before the run started fire in plain sorted order.
    roots = [label for label in log if len(label) == 1]
    assert roots == sorted(
        roots, key=lambda label: (tuple(handles[label][:4]), label)
    )
    assert scheduler.pending == 0
    assert scheduler.events_processed == len(log)


arrival_plans = st.lists(
    st.tuples(
        st.sampled_from([StreamId.R, StreamId.S]),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=120,
)


@given(arrival_plans, st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_oracle_matches_brute_force_windowed_join(plan, capacity):
    """|Psi| from the oracle equals a brute-force enumeration."""
    oracle = GroundTruthOracle()
    windows = {}
    brute_pairs = set()
    live = []  # (stream, key, tuple_id, origin) currently in some window

    for stream, key, origin in plan:
        item = StreamTuple(stream=stream, key=key, origin_node=origin, arrival_index=0)
        for other_stream, other_key, other_id, _ in live:
            if other_stream is not stream and other_key == key:
                pair = (
                    (item.tuple_id, other_id)
                    if stream is StreamId.R
                    else (other_id, item.tuple_id)
                )
                brute_pairs.add(pair)
        window = windows.setdefault((origin, stream), CountWindow(capacity))
        evicted = window.append(item)
        live.append((stream, key, item.tuple_id, origin))
        evicted_ids = {t.tuple_id for t in evicted}
        live = [entry for entry in live if entry[2] not in evicted_ids]
        oracle.observe_arrival(item, evicted)

    assert oracle.total_result_pairs == len(brute_pairs)
    for pair in brute_pairs:
        assert oracle.is_true_pair(*pair)
