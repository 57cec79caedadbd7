"""One node's logical process: its ingress, inbox, service queue and loop.

Queueing and service are the testbed's WAN emulation, where the sender
pauses one second per 90 kilobits (see :mod:`repro.core.node`).
:class:`ServiceProcess` is that emulation for one node, a logical process
in the Chandy-Misra sense: it serves its queue first in first out through
the node's ``serve(work) -> seconds`` callback and knows nothing of joins.

Ingress.  Every input reaches :meth:`ServiceProcess.take` as ``[time,
phase, rank, seq, work, arrive]``: the key of its arrival event (see
:mod:`repro.net.simulator`) and the callback that event runs --
``[arrival, 1, link rank, link seq, message, link._arrive]`` from a link,
``[time, 0, 0, arrival_index, item, node.on_local_arrival]`` for a local
arrival.  Without an inbox the entry becomes that event
(:func:`schedule_input`); with one it waits in a heap in key order.  Every
``arrive`` that admits its work ends in :meth:`ServiceProcess.enqueue`,
the one door into the queue, which recovery's replay also uses.

Why the inbox is exact.  A node uses one when an input's only effect
there is the queue append: no telemetry, faults, ARQ demux, liveness,
restore parking or admission bound.  The inbox then serves the event
path's sequence at the event path's instants:

* A busy process.  A finish at key ``F``, scheduled or inline, merges
  every entry keyed before ``F``, in key order.  Each entry's own event
  would already have fired there and appended it, because the node was
  busy.  So queue contents, the depth ``serve`` reads and
  ``max_queue_depth`` are the event path's.
* An idle process.  Its inbox head is the earliest input it has, and its
  one wake fires at the head's time and key and runs the head's
  ``arrive``, exactly what the head's event did: it appends (depth 1)
  and starts.  An input that becomes the head of an idle process cancels
  the pending wake and schedules its own; a busy process keeps no wake;
  a finish that leaves the queue empty and the inbox not schedules one.
* Serving ahead.  With :attr:`ServiceProcess.runs_ahead`, a finish before
  ``now + L``, ``L = min(LATENCY_MIN_S, LATENCY_MAX_S)`` of
  :mod:`repro.net.link`, runs inline
  (:meth:`~repro.net.simulator.EventScheduler.execute_inline`) and
  starts the next service; the first at or past it is scheduled.  An
  input that does not exist yet is sent at some simulated ``t >= now``,
  by an event that sorts after the current one or by a finish such an
  event serves inline, and spends at least ``L`` in flight.  Float
  rounding is monotone, so it arrives at or after ``fl(now + L)``, after
  every finish served inline.  Inputs that already exist are all in the
  inbox and are merged at each inline finish, so no input cuts the
  horizon.  Nothing else reads or writes a node between its events on
  such a run: policy RNGs are per node, tuple ids are minted at
  scheduling time, traffic statistics count integers and accounting ops
  are keyed per node.  So link RNG draws, link keys and every byte sent
  are the event path's too.
* Phase-0 wakes.  A wake for a local arrival is a phase-0 event with a
  fresh scheduler tie.  On such a run the only phase-0 events are these
  wakes, and wakes of different nodes touch disjoint state, so their
  order at one instant is immaterial.  Within one node the inbox orders
  same-instant arrivals by ``arrival_index``, the order they were
  scheduled in.

An input that lands in a process's served-ahead past anyway (a
hand-scheduled arrival) raises :class:`~repro.errors.SimulationError` in
:meth:`ServiceProcess.enqueue`; it is never reordered silently.
``events_processed + inputs_merged + inlined`` is the all-events count
(``tests/property/test_held_delivery_equivalence.py``).

Overload protection (:mod:`repro.overload`).  With a detector the queue
is bounded: the process sheds by priority through the node's ``shed``
callback, and each depth it observes may step the degradation ladder
through the node's ``mode_change`` callback.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Deque, List, Optional, Union

from repro.errors import SimulationError
from repro.net import link as wan
from repro.net.message import Message, MessageKind
from repro.net.simulator import Event, EventKeySource, EventScheduler
from repro.overload import DegradationMode, OverloadDetector
from repro.streams.tuples import StreamTuple

WorkItem = Union[StreamTuple, Message]
"""One entry of a node's service queue: the :class:`StreamTuple` of a
local arrival or the delivered :class:`Message` itself."""


def work_kind(work: WorkItem) -> str:
    """``"local"`` for a local arrival, ``"message"`` for a delivery: the
    kind that dispatch, shedding, the ``node.service`` event and the
    ``node.<kind>`` profiler sections name."""
    return "local" if type(work) is StreamTuple else "message"


def schedule_input(scheduler: EventScheduler, entry: list) -> None:
    """Make the ingress entry ``[time, phase, rank, seq, work, arrive]`` its
    own arrival event: ``arrive(work)`` at ``time``, keyed ``(rank, seq)``
    in phase 1 and with a fresh tie in phase 0."""
    time, phase, rank, seq, work, arrive = entry
    scheduler.schedule_at(
        time, partial(arrive, work), key=(rank, seq) if phase else None
    )


# Shedding priority classes, highest kept longest.  Remote tuple copies go
# first: the origin node already counted them toward its own report, so
# dropping a copy costs recall on cross-partition pairs only.  Local
# arrivals are this node's sole chance to observe its own stream segment.
# Summary/control/result messages keep the mesh's metadata coherent, and
# STATE_TRANSFER (never a victim) is the recovery path itself.
_SHED_PRIORITY_REMOTE_TUPLE = 0
_SHED_PRIORITY_LOCAL = 1
_SHED_PRIORITY_CONTROL = 2
_SHED_PRIORITY_TRANSFER = 3


def _work_priority(work: WorkItem) -> int:
    if work_kind(work) != "message":
        return _SHED_PRIORITY_LOCAL
    if work.kind is MessageKind.STATE_TRANSFER:
        return _SHED_PRIORITY_TRANSFER
    if work.kind is MessageKind.TUPLE:
        return _SHED_PRIORITY_REMOTE_TUPLE
    return _SHED_PRIORITY_CONTROL


class ServiceProcess:
    """One node's ingress, inbox, FIFO service queue and service loop."""

    def __init__(
        self,
        scheduler: EventScheduler,
        keys: EventKeySource,
        serve: Callable[[WorkItem], float],
        uses_inbox: bool,
        detector: Optional[OverloadDetector] = None,
        shed: Optional[Callable[[WorkItem], None]] = None,
        mode_change: Optional[Callable] = None,
    ) -> None:
        self.scheduler = scheduler
        self._keys = keys
        """The node's key source: a finish is the event ``(time, 1, node
        id, seq)``."""
        self.serve = serve
        """``serve(work) -> seconds``: the node serves ``work`` now."""
        self.uses_inbox = uses_inbox
        """Whether inputs wait in the inbox; clearing it before the first
        input runs every input as an event."""
        self.runs_ahead = False
        """Whether a busy process serves ahead (see the module docstring).
        The system copies :attr:`uses_inbox` into it when it hands the
        node its local arrivals; a node driven by hand does not."""
        self.queue: Deque[WorkItem] = deque()
        self.busy = False
        self.inbox: List[list] = []
        """Inputs not yet in the queue: a heap of ingress entries."""
        self.wake: Optional[Event] = None
        """The one event that serves an idle process's inbox head."""
        self.inputs_merged = 0
        """Inbox entries merged at a finish, each an arrival event saved."""
        self.max_queue_depth = 0
        self._ahead: Optional[list] = None
        """The key ``[time, 1, node id, seq]`` of the latest finish served
        inline; an input whose event does not sort after it raises."""
        self._detector = detector
        self._queue_bound = 0 if detector is None else detector.settings.queue_bound
        self._shed = shed
        self._mode_change = mode_change

    @property
    def queue_depth(self) -> int:
        """Queued work; an inbox entry counts from the finish that merges
        it, not from its arrival time."""
        return len(self.queue)

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------

    def take(self, entry: list) -> None:
        """Receive one input, ``[time, phase, rank, seq, work, arrive]``:
        its arrival event on a process without an inbox, an inbox entry
        on one with."""
        if not self.uses_inbox:
            schedule_input(self.scheduler, entry)
            return
        inbox = self.inbox
        heappush(inbox, entry)
        if inbox[0] is entry and not self.busy:
            if self.wake is not None:
                self.wake.cancel()
            self._schedule_wake()

    def _schedule_wake(self) -> None:
        time, phase, rank, seq, _, _ = self.inbox[0]
        self.wake = self.scheduler.schedule_at(
            time, self._wake_up, key=(rank, seq) if phase else None
        )

    def _wake_up(self) -> None:
        self.wake = None
        _, _, _, _, work, arrive = heappop(self.inbox)
        arrive(work)

    def _merge_inbox(self) -> None:
        """Append the inbox entries keyed before the event being executed,
        in key order."""
        inbox = self.inbox
        queue = self.queue
        current = self.scheduler.current
        while inbox and inbox[0] < current:
            queue.append(heappop(inbox)[4])
            self.inputs_merged += 1
        self.max_queue_depth = max(self.max_queue_depth, len(queue))

    def enqueue(self, work: WorkItem) -> None:
        """Admit ``work``, which arrives now, and serve from here."""
        ahead = self._ahead
        if ahead is not None and not self.scheduler.current > ahead:
            # Also an input from the very event that served ahead: it
            # belongs before the finishes that event served inline.
            raise SimulationError(
                "node %d received input at t=%r after serving ahead to t=%r"
                % (self._keys.rank, self.scheduler.now, ahead[0])
            )
        if self.busy:
            if self.inbox:
                self._merge_inbox()
        elif self.wake is not None:
            # A hand-driven input reached an idle process before its wake.
            self.wake.cancel()
            self.wake = None
        queue = self.queue
        if type(work) is Message and work.kind is MessageKind.STATE_TRANSFER:
            # Recovery anti-entropy jumps the queue, so a saturated mesh's
            # catch-up window is bounded by the WAN, not by queue depth,
            # and bypasses the bound: shedding the handshake would deadlock
            # a rejoining node behind the congestion it rejoins through.
            queue.appendleft(work)
        elif self._detector is not None and len(queue) >= self._queue_bound:
            self._admit_over_bound(work)
        else:
            queue.append(work)
        self.max_queue_depth = max(self.max_queue_depth, len(queue))
        if self._detector is not None:
            self._observe_overload(len(queue))
        self._start_next()

    def _admit_over_bound(self, work: WorkItem) -> None:
        """The queue is at its bound: the victim is the lowest-priority
        entry, tail-most among equals; incoming work that does not outrank
        it is shed itself.  A pure function of queue contents."""
        queue = self.queue
        incoming = _work_priority(work)
        victim_index = 0
        victim_priority: Optional[int] = None
        for index in range(len(queue) - 1, -1, -1):
            priority = _work_priority(queue[index])
            if victim_priority is None or priority < victim_priority:
                victim_index = index
                victim_priority = priority
        if victim_priority is None or incoming <= victim_priority:
            self._shed(work)
        else:
            victim = queue[victim_index]
            del queue[victim_index]
            self._shed(victim)
            queue.append(work)

    def _observe_overload(self, queue_depth: int) -> None:
        detector = self._detector
        if (
            detector.ladder.mode is DegradationMode.NORMAL
            and queue_depth < detector.settings.throttle_watermark
        ):
            return  # below the first watermark a NORMAL ladder stays put
        now = self.scheduler.now
        for trigger, mode in detector.observe(now, queue_depth):
            self._mode_change(trigger, mode, queue_depth, now)

    def drop_queue(self) -> None:
        """The process died: its queued work goes, and so does the peak
        depth it measured."""
        self.queue.clear()
        self.max_queue_depth = 0

    # ------------------------------------------------------------------
    # service loop
    # ------------------------------------------------------------------

    def _start_next(self) -> None:
        """Serve the queue from here.  On a process that runs ahead, a
        finish before ``now + L`` is executed inline and starts the next
        service; the first one at or past it is scheduled as an event."""
        if self.busy or not self.queue:
            return
        self.busy = True
        scheduler = self.scheduler
        queue = self.queue
        serve = self.serve
        horizon = (
            scheduler.now + min(wan.LATENCY_MIN_S, wan.LATENCY_MAX_S)
            if self.runs_ahead
            else -math.inf
        )
        while True:
            seconds = serve(queue.popleft())
            finish = scheduler.now + seconds
            key = self._keys.next_key()
            if finish < horizon:
                # What _finish_service does, at the finish's own instant.
                self._ahead = scheduler.execute_inline(finish, key)
                if self.inbox:
                    self._merge_inbox()
                if queue:
                    continue
                self.busy = False
                if self.inbox:
                    self._schedule_wake()
                return
            scheduler.schedule_at(finish, self._finish_service, key=key)
            return

    def _finish_service(self) -> None:
        self.busy = False
        if self.inbox:
            self._merge_inbox()
        if self._detector is not None:
            # The drain side of the hysteresis loop: arrivals can only
            # escalate, so recovery has to be observed here, where the
            # queue actually shrinks.
            self._observe_overload(len(self.queue))
        if self.queue:
            self._start_next()
        elif self.inbox:
            self._schedule_wake()
