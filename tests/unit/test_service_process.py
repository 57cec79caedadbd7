"""The service process alone: a bare scheduler, a fake ``serve`` and
hand-made ingress entries, with no node and no network (see
:mod:`repro.core.service`)."""

import pytest

from repro.core.service import ServiceProcess
from repro.errors import SimulationError
from repro.net import link as wan
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventKeySource, EventScheduler
from repro.overload import DegradationLadder, OverloadDetector, OverloadSettings
from repro.streams.tuples import StreamId, StreamTuple

LINK_RANK = 5
"""The rank of the one link every delivery below arrives on; the process
itself keys its finishes with rank 0."""


def work(index):
    return StreamTuple(stream=StreamId.R, key=index, origin_node=0, arrival_index=index)


def build(seconds=1.0, uses_inbox=True, runs_ahead=False, detector=None, shed=None):
    """A process whose every service takes ``seconds``; returns the
    scheduler, the process and its log of ``(start time, arrival_index)``."""
    scheduler = EventScheduler()
    served = []

    def serve(item):
        served.append((scheduler.now, item.arrival_index))
        return seconds

    process = ServiceProcess(
        scheduler,
        EventKeySource(0),
        serve,
        uses_inbox=uses_inbox,
        detector=detector,
        shed=shed,
        mode_change=lambda *transition: None,
    )
    process.runs_ahead = runs_ahead
    return scheduler, process, served


def take(process, time, seq, index, rank=LINK_RANK):
    """Hand in a delivery arriving at ``time`` under link key ``(rank, seq)``,
    whose arrival event would only enqueue it."""
    process.take([time, 1, rank, seq, work(index), process.enqueue])


def test_a_finish_merges_the_entries_keyed_before_it_in_key_order():
    scheduler, process, served = build()
    take(process, 0.0, 0, 0)
    scheduler.run(max_events=1)  # the wake: serving 0 until t = 1
    assert process.busy and process.wake is None
    take(process, 0.5, 2, 1)
    take(process, 0.5, 1, 2)  # same instant, earlier link seq
    take(process, 0.25, 3, 3)
    take(process, 1.5, 4, 4)  # after the first finish
    assert scheduler.pending == 1  # only that finish: a busy process keeps no wake
    scheduler.run(max_events=1)
    assert [item.arrival_index for item in process.queue] == [2, 1]  # 3 in service
    assert process.max_queue_depth == 3
    assert len(process.inbox) == 1
    scheduler.run()
    assert served == [(0.0, 0), (1.0, 3), (2.0, 2), (3.0, 1), (4.0, 4)]
    assert process.inputs_merged == 4
    assert scheduler.events_processed == 6  # one wake and five finishes


def test_an_idle_process_has_exactly_one_wake_at_its_inbox_head():
    scheduler, process, served = build()
    take(process, 0.75, 0, 0)
    take(process, 0.5, 1, 1)
    take(process, 2.0, 2, 2)
    assert scheduler.pending == 1
    wake = process.wake
    assert (wake.time, wake.phase, wake.rank, wake.seq) == (0.5, 1, LINK_RANK, 1)
    scheduler.run()
    assert served == [(0.5, 1), (1.5, 0), (2.5, 2)]
    assert process.wake is None and not process.inbox


def test_a_new_head_cancels_the_pending_wake():
    scheduler, process, served = build(seconds=0.125)
    take(process, 0.5, 0, 0)
    first = process.wake
    take(process, 0.25, 1, 1)
    assert first.cancelled
    assert process.wake.time == 0.25
    take(process, 0.75, 2, 2)  # not the head: the wake stays
    assert process.wake.time == 0.25
    assert scheduler.pending == 1
    scheduler.run()
    assert served == [(0.25, 1), (0.5, 0), (0.75, 2)]


def test_a_local_arrival_is_a_phase_0_wake_in_arrival_index_order():
    scheduler, process, served = build(seconds=0.125)
    for index in (2, 0, 1):
        process.take([0.5, 0, 0, index, work(index), process.enqueue])
    assert process.wake.phase == 0
    scheduler.run()
    assert served == [(0.5, 0), (0.625, 1), (0.75, 2)]


def test_without_an_inbox_every_input_is_its_arrival_event():
    scheduler, process, served = build(seconds=0.125, uses_inbox=False)
    take(process, 0.5, 0, 0)
    take(process, 0.25, 1, 1)
    assert not process.inbox and process.wake is None
    assert scheduler.pending == 2
    scheduler.run()
    assert served == [(0.25, 1), (0.5, 0)]
    assert process.inputs_merged == 0
    assert scheduler.events_processed == 4  # two arrivals, two finishes


@pytest.mark.parametrize("latency, inline", [(0.25, False), (0.5, True)])
def test_a_finish_at_exactly_now_plus_the_latency_floor_is_an_event(
    monkeypatch, latency, inline
):
    """A wake at 0.5 serves for 0.25: the finish at 0.75 is inside the
    horizon ``0.5 + L`` only when it lies strictly before it."""
    monkeypatch.setattr(wan, "LATENCY_MIN_S", latency)
    monkeypatch.setattr(wan, "LATENCY_MAX_S", 1.0)
    scheduler, process, served = build(seconds=0.25, runs_ahead=True)
    take(process, 0.5, 0, 0)
    scheduler.run(max_events=1)
    assert scheduler.inlined == int(inline)
    assert scheduler.pending == int(not inline)
    assert scheduler.now == (0.75 if inline else 0.5)
    scheduler.run()
    assert served == [(0.5, 0)]
    assert scheduler.events_processed == 1 + int(not inline)


def test_serving_ahead_merges_at_every_inline_finish(monkeypatch):
    monkeypatch.setattr(wan, "LATENCY_MIN_S", 1.0)
    monkeypatch.setattr(wan, "LATENCY_MAX_S", 1.0)
    scheduler, process, served = build(seconds=0.25, runs_ahead=True)
    take(process, 0.0, 0, 0)
    take(process, 0.125, 1, 1)
    take(process, 0.375, 2, 2)
    scheduler.run()
    assert served == [(0.0, 0), (0.25, 1), (0.5, 2)]
    assert scheduler.events_processed == 1  # the wake; three finishes inline
    assert scheduler.inlined == 3
    assert process.inputs_merged == 2


def test_an_input_in_the_served_ahead_past_raises(monkeypatch):
    """The finish at 0.25 was served inline inside the wake at 0; a
    hand-scheduled input at 0.125 would have to be served before it."""
    monkeypatch.setattr(wan, "LATENCY_MIN_S", 1.0)
    monkeypatch.setattr(wan, "LATENCY_MAX_S", 1.0)
    scheduler, process, _ = build(seconds=0.25, runs_ahead=True)
    take(process, 0.0, 0, 0)
    scheduler.schedule_at(0.125, lambda: process.enqueue(work(1)))
    with pytest.raises(SimulationError, match="serving ahead"):
        scheduler.run()


def test_at_the_bound_the_lowest_priority_work_is_shed():
    """Remote tuple copies go before local arrivals; an arrival that does
    not outrank the victim is shed itself; STATE_TRANSFER jumps the queue
    past the bound."""
    settings = OverloadSettings.for_queue_bound(2)
    detector = OverloadDetector(settings, DegradationLadder(0))
    shed = []
    scheduler, process, _ = build(detector=detector, shed=shed.append)

    def message(kind):
        return Message(kind=kind, source=1)

    copy, second_copy = message(MessageKind.TUPLE), message(MessageKind.TUPLE)
    transfer = message(MessageKind.STATE_TRANSFER)
    first, second = work(1), work(2)
    process.serve = lambda item: 1.0
    process.enqueue(work(0))  # in service
    process.enqueue(first)
    process.enqueue(copy)
    process.enqueue(second)  # evicts the copy
    process.enqueue(second_copy)  # outranks nothing: shed on arrival
    process.enqueue(transfer)
    assert shed == [copy, second_copy]
    assert list(process.queue) == [transfer, first, second]
    process.drop_queue()
    assert not process.queue and process.max_queue_depth == 0
