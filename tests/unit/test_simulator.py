"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.net.simulator import EventScheduler


def test_clock_starts_at_zero():
    scheduler = EventScheduler()
    assert scheduler.now == 0.0
    assert scheduler.pending == 0


def test_events_run_in_time_order():
    scheduler = EventScheduler()
    order = []
    scheduler.schedule_at(2.0, lambda: order.append("b"))
    scheduler.schedule_at(1.0, lambda: order.append("a"))
    scheduler.schedule_at(3.0, lambda: order.append("c"))
    scheduler.run()
    assert order == ["a", "b", "c"]
    assert scheduler.now == 3.0


def test_simultaneous_events_preserve_insertion_order():
    scheduler = EventScheduler()
    order = []
    for tag in range(5):
        scheduler.schedule_at(1.0, lambda t=tag: order.append(t))
    scheduler.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_in_is_relative_to_now():
    scheduler = EventScheduler()
    seen = []
    scheduler.schedule_at(5.0, lambda: scheduler.schedule_in(2.5, lambda: seen.append(scheduler.now)))
    scheduler.run()
    assert seen == [7.5]


def test_scheduling_in_the_past_raises():
    scheduler = EventScheduler()
    scheduler.schedule_at(1.0, lambda: None)
    scheduler.run()
    with pytest.raises(SimulationError):
        scheduler.schedule_at(0.5, lambda: None)


def test_negative_delay_raises():
    scheduler = EventScheduler()
    with pytest.raises(SimulationError):
        scheduler.schedule_in(-1.0, lambda: None)


def test_nan_times_and_delays_raise():
    """A NaN time sorts nowhere: it would fire out of order and leave the
    clock at NaN, so scheduling one is an error."""
    scheduler = EventScheduler()
    with pytest.raises(SimulationError):
        scheduler.schedule_at(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        scheduler.schedule_in(float("nan"), lambda: None)
    assert scheduler.pending == 0


def test_current_is_the_event_being_executed():
    scheduler = EventScheduler()
    seen = []
    first = scheduler.schedule_at(1.0, lambda: seen.append(scheduler.current))
    second = scheduler.schedule_at(
        1.0, lambda: seen.append(scheduler.current), key=(3, 0)
    )
    assert scheduler.current is None
    scheduler.run()
    assert seen[0] is first and seen[1] is second
    # A held delivery's [time, 1, rank, seq, ...] compares with it directly.
    assert [1.0, 1, 2, 9, None] < second < [1.0, 1, 3, 1, None]


def test_run_until_stops_before_later_events():
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule_at(1.0, lambda: fired.append(1))
    scheduler.schedule_at(10.0, lambda: fired.append(10))
    now = scheduler.run(until=5.0)
    assert fired == [1]
    assert now == 5.0
    assert scheduler.pending == 1
    scheduler.run()
    assert fired == [1, 10]


def test_run_until_advances_clock_even_with_no_events():
    scheduler = EventScheduler()
    assert scheduler.run(until=4.0) == 4.0
    assert scheduler.now == 4.0


def test_max_events_limit():
    scheduler = EventScheduler()
    fired = []
    for i in range(10):
        scheduler.schedule_at(float(i), lambda i=i: fired.append(i))
    scheduler.run(max_events=3)
    assert fired == [0, 1, 2]


def test_cancelled_events_do_not_fire():
    scheduler = EventScheduler()
    fired = []
    event = scheduler.schedule_at(1.0, lambda: fired.append("cancelled"))
    scheduler.schedule_at(2.0, lambda: fired.append("kept"))
    event.cancel()
    scheduler.run()
    assert fired == ["kept"]
    assert scheduler.events_processed == 1


def test_events_scheduled_during_run_are_processed():
    scheduler = EventScheduler()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            scheduler.schedule_in(1.0, lambda: chain(depth + 1))

    scheduler.schedule_at(0.0, lambda: chain(0))
    scheduler.run()
    assert fired == [0, 1, 2, 3]
    assert scheduler.now == 3.0


def test_pending_counts_only_live_events():
    scheduler = EventScheduler()
    events = [scheduler.schedule_at(float(i + 1), lambda: None) for i in range(4)]
    assert scheduler.pending == 4
    events[0].cancel()
    events[2].cancel()
    assert scheduler.pending == 2


def test_cancel_is_idempotent_for_accounting():
    scheduler = EventScheduler()
    event = scheduler.schedule_at(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert scheduler.pending == 0


def test_cancelled_majority_triggers_compaction():
    scheduler = EventScheduler()
    size = EventScheduler.COMPACTION_MIN_QUEUE * 2
    events = [scheduler.schedule_at(float(i + 1), lambda: None) for i in range(size)]
    assert scheduler.compactions == 0
    for event in events[: size // 2 + 1]:
        event.cancel()
    assert scheduler.compactions == 1
    # Heap now holds only the live survivors.
    assert scheduler.pending == size - (size // 2 + 1)
    assert len(scheduler._queue) == scheduler.pending


def test_small_queues_are_not_compacted():
    scheduler = EventScheduler()
    events = [scheduler.schedule_at(float(i + 1), lambda: None) for i in range(8)]
    for event in events:
        event.cancel()
    assert scheduler.compactions == 0
    assert scheduler.pending == 0


def test_compaction_preserves_execution_order():
    scheduler = EventScheduler()
    size = EventScheduler.COMPACTION_MIN_QUEUE * 2
    fired = []
    events = []
    for i in range(size):
        events.append(
            scheduler.schedule_at(float(i + 1), lambda i=i: fired.append(i))
        )
    cancelled = set(range(0, size, 2)) | {1, 3, 5}
    for index in sorted(cancelled):
        events[index].cancel()
    assert scheduler.compactions >= 1
    scheduler.run()
    assert fired == [i for i in range(size) if i not in cancelled]


def test_reentrant_run_rejected():
    scheduler = EventScheduler()
    errors = []

    def reenter():
        try:
            scheduler.run()
        except SimulationError as exc:
            errors.append(exc)

    scheduler.schedule_at(0.0, reenter)
    scheduler.run()
    assert len(errors) == 1


def test_max_events_break_leaves_the_clock_at_the_last_event():
    """``until`` is reached only once nothing at or before it is pending."""
    scheduler = EventScheduler()
    fired = []
    for time in (1.0, 2.0, 3.0):
        scheduler.schedule_at(time, lambda t=time: fired.append(t))
    assert scheduler.run(until=10.0, max_events=1) == 1.0
    assert scheduler.now == 1.0
    assert scheduler.pending == 2
    scheduler.schedule_at(2.5, lambda: fired.append(2.5))  # not in the past
    assert scheduler.run(until=10.0, max_events=2) == 2.5
    assert scheduler.run(until=10.0, max_events=1) == 10.0  # drained: now at until
    assert fired == [1.0, 2.0, 2.5, 3.0]
    assert scheduler.material_now == 10.0


class _Uncomparable:
    """A callback that fails the test if the heap ever compares it."""

    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def __call__(self):
        self.log.append(self.tag)

    def __lt__(self, other):
        raise AssertionError("the heap compared two callbacks")

    __gt__ = __le__ = __ge__ = __lt__


def test_equal_full_keys_fire_in_insertion_order():
    """Same ``(time, phase, rank, seq)`` twice: no error, no look at the
    callbacks, first scheduled fires first."""
    scheduler = EventScheduler()
    log = []
    for tag in range(6):
        scheduler.schedule_at(1.0, _Uncomparable(log, tag), key=(3, 7))
    scheduler.schedule_at(1.0, _Uncomparable(log, "earlier rank"), key=(2, 9))
    scheduler.run()
    assert log == ["earlier rank", 0, 1, 2, 3, 4, 5]


def test_event_handle_reads_by_name():
    scheduler = EventScheduler()
    event = scheduler.schedule_at(1.5, print, key=(2, 5))
    assert (event.time, event.phase, event.rank, event.seq) == (1.5, 1, 2, 5)
    assert event.callback is print
    assert (event.material, event.cancelled) == (True, False)
    event.cancel()
    assert event.cancelled
