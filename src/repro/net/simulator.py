"""A deterministic discrete-event scheduler.

The scheduler is the clock of the simulated WAN.  Components schedule
callbacks at absolute or relative simulated times; :meth:`EventScheduler.run`
drains the event queue in time order.

Ordering contract.  Events order by ``(time, phase, rank, seq)``, and two
events whose four values are all equal fire in the order they were
scheduled:

* **phase 0** -- events scheduled without an explicit key (all
  construction-time scheduling: workload arrivals, heartbeat ticks,
  telemetry samples, fault edges).  ``rank`` is 0 and ``seq`` is the
  scheduler's insertion counter, so phase-0 ties fire in the order they
  were scheduled -- the historical behavior.
* **phase 1** -- events scheduled with an explicit ``key=(rank, seq)``
  from an :class:`EventKeySource`.  The rank identifies the scheduling
  *entity* (a node, a link) and the seq is that entity's own monotone
  counter, so the key is a pure function of the entity's local history.

Phase-1 keys make the order of run-time events a pure function of each
entity's own history rather than of the global interleaving in which
unrelated entities happened to call ``schedule_at``: two events at the
same instant fire in ``(rank, seq)`` order however the rest of the run
was scheduled.  Every golden and ``result_digest`` is pinned to that
order.

The inbox.  On a clean run a node's inputs wait in its inbox instead of
being events, and a busy node serves a finish that lies before the
links' minimum latency ``L`` past the event being executed inside that
event; :mod:`repro.core.service` says why both are exact.  The scheduler's
part is :meth:`EventScheduler.execute_inline`: it moves
:attr:`~EventScheduler.now` and :attr:`~EventScheduler.current` to the
finish's time and key ``(time, 1, node id, seq)``, so every reader sees
the service's own instant.  :attr:`~EventScheduler.now` may therefore
lead the heap's next event by up to ``L``, and goes back to that event's
time when it fires.

The design intentionally avoids coroutine-style processes: the node logic in
:mod:`repro.core.node` is reactive (it only acts when a tuple or message
arrives), so plain callbacks keep the control flow explicit and easy to
test.
"""

from __future__ import annotations

import heapq
import itertools
from operator import itemgetter
from typing import Callable, Optional, Tuple

from repro.errors import SimulationError

EventKey = Tuple[int, int]
"""An entity-local ``(rank, seq)`` ordering key (see :class:`EventKeySource`)."""


class EventKeySource:
    """Deterministic ``(rank, seq)`` event keys for one scheduling entity.

    ``rank`` is the entity's canonical id in the run (node id for nodes;
    ``num_nodes + src * num_nodes + dst`` for links), ``seq`` a monotone
    per-entity counter.  Keys depend only on the entity's own scheduling
    history, never on global insertion order.
    """

    __slots__ = ("rank", "seq")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.seq = 0
        """The next key's seq; a hot caller mints ``(rank, seq)`` itself."""

    def next_key(self) -> EventKey:
        key = (self.rank, self.seq)
        self.seq += 1
        return key


_TIME, _PHASE, _RANK, _SEQ, _TIE, _CALLBACK, _MATERIAL, _CANCELLED, _OWNER = range(9)


class Event(list):
    """A scheduled callback, and its own entry in the scheduler's heap.

    An event *is* the list ``[time, phase, rank, seq, tie, callback,
    material, cancelled, owner]``, so the heap orders events with
    the interpreter's C list comparison instead of a Python ``__lt__``
    (see the module docstring for the phase/rank/seq contract).  ``tie``
    is the scheduler's insertion counter: it is unique per scheduler, so
    a comparison is always decided at or before it and never reaches the
    callback, and events with equal ``(time, phase, rank, seq)`` fire in
    insertion order.  Only :meth:`EventScheduler.schedule_at` builds
    events; everyone else reads the fields by name.
    """

    __slots__ = ()

    time = property(itemgetter(_TIME))
    phase = property(itemgetter(_PHASE))
    rank = property(itemgetter(_RANK))
    seq = property(itemgetter(_SEQ))
    callback = property(itemgetter(_CALLBACK))
    material = property(itemgetter(_MATERIAL))
    cancelled = property(itemgetter(_CANCELLED))

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when its time comes."""
        if self[_CANCELLED]:
            return
        self[_CANCELLED] = True
        self[_OWNER]._note_cancelled()


class EventScheduler:
    """Priority-queue event loop with a monotone simulated clock.

    Cancelled events are not left to rot in the heap: the scheduler
    counts them, reports :attr:`pending` as *live* events only, and
    compacts the heap whenever cancelled entries outnumber live ones --
    a retransmit-heavy reliable-transport run would otherwise grow the
    queue without bound.
    """

    COMPACTION_MIN_QUEUE = 64
    """Skip compaction below this queue length; rebuilding tiny heaps
    costs more than the dead entries do."""

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._insertions = itertools.count()
        """Every event's ``tie`` (see :class:`Event`), and a phase-0
        event's ``seq``."""
        self.now = 0.0
        """Current simulated time in seconds: a plain attribute, read on
        every send and service, that only the scheduler writes."""
        self._material_now = 0.0
        self._latest_inline = 0.0
        self.current: Optional[Event] = None
        """The event being executed (the last one, between runs), or the
        key ``[time, 1, rank, seq]`` of the finish last executed inline
        (see :meth:`execute_inline`).  An event is a list whose first four
        fields are its sort key, so a node's inbox entry ``[time, phase,
        rank, seq, work, arrive]`` compares with either directly."""
        self._running = False
        self._events_processed = 0
        self._cancelled_pending = 0
        self.inlined = 0
        """Service finishes executed inline (see :meth:`execute_inline`),
        not counted in :attr:`events_processed`."""
        self.compactions = 0
        self.telemetry = None
        """Optional :class:`repro.telemetry.TelemetryHub`; when set,
        heap compactions are emitted as scheduler events."""

    @property
    def material_now(self) -> float:
        """Simulated time of the latest *material* event executed,
        inline finishes included.

        Observation-only events (telemetry sampling ticks, scheduled with
        ``material=False``) advance :attr:`now` but not this clock, so a
        run's reported duration is identical with telemetry on or off.
        An inline finish may lie later than every event executed after
        it, so this is the latest time, not the last one's.
        """
        if self._latest_inline > self._material_now:
            return self._latest_inline
        return self._material_now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled_pending

    def _note_cancelled(self) -> None:
        self._cancelled_pending += 1
        if (
            len(self._queue) >= self.COMPACTION_MIN_QUEUE
            and self._cancelled_pending > len(self._queue) // 2
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors."""
        before = len(self._queue)
        self._queue = [event for event in self._queue if not event.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0
        self.compactions += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "sched.compaction",
                category="scheduler",
                time=self.now,
                dropped=before - len(self._queue),
                remaining=len(self._queue),
            )

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        material: bool = True,
        key: Optional[EventKey] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Scheduling in the past is an error: the clock only moves forward.
        ``material=False`` marks an observation-only event (telemetry
        sampling) that must not advance :attr:`material_now`.  ``key``
        is an entity-local ``(rank, seq)`` from an
        :class:`EventKeySource` (phase 1); without one the event is
        phase 0 and ties break by insertion order.
        """
        if not time >= self.now:
            # ``not >=`` also rejects NaN, which would fire out of order
            # and leave the clock at NaN.
            raise SimulationError(
                "cannot schedule at t=%g; clock is already at t=%g" % (time, self.now)
            )
        tie = next(self._insertions)
        if key is None:
            phase, rank, seq = 0, 0, tie
        else:
            phase = 1
            rank, seq = key
        event = Event(
            (time, phase, rank, seq, tie, callback, material, False, self)
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        material: bool = True,
        key: Optional[EventKey] = None,
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if not delay >= 0:
            raise SimulationError("delay must be non-negative, got %g" % delay)
        return self.schedule_at(self.now + delay, callback, material, key)

    def execute_inline(self, time: float, key: EventKey) -> list:
        """Run a node's service finish at ``time`` inside the event being
        executed, as the phase-1 event ``(time, 1, *key)`` it replaces.

        Sets :attr:`now` and :attr:`current` to that finish and returns
        the new :attr:`current`, ``[time, 1, rank, seq]``, which compares
        with events and inbox entries as the event would.  The caller
        proves that no pending or future event sorts before it (see the
        module docstring); :attr:`now` goes back to the next event's time
        when that event fires.
        """
        current = self.current = [time, 1, key[0], key[1]]
        self.now = time
        if time > self._latest_inline:
            self._latest_inline = time
        self.inlined += 1
        return current

    def _execute(self, event: Event) -> None:
        time, _, _, _, _, callback, material, _, _ = event
        self.current = event
        self.now = time
        if material:
            self._material_now = time
        callback()
        self._events_processed += 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        Runs until the queue is empty or the next event lies beyond
        ``until`` (either way the clock is then advanced to ``until``), or
        until ``max_events`` callbacks have executed while events at or
        before ``until`` remain (the clock then stays at the last one
        executed).  Returns the simulated time at exit.
        """
        if self._running:
            raise SimulationError("scheduler is not reentrant")
        self._running = True
        horizon = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        executed = 0
        try:
            while True:
                # A callback may compact the heap, which rebinds the list.
                queue = self._queue
                if not queue or queue[0][_TIME] > horizon:
                    if until is not None and self.now < until:
                        self.now = until
                        self._material_now = until
                    break
                if executed >= budget:
                    break
                event = heapq.heappop(queue)
                if event[_CANCELLED]:
                    self._cancelled_pending -= 1
                    continue
                self._execute(event)
                executed += 1
        finally:
            self._running = False
        return self.now

    def run_window(self, until: float) -> int:
        """Execute every event with ``time < until``; return the count.

        For callers that advance a run in steps and then let it drain
        (the end-to-end ledger's warmup): strictly-less-than makes
        consecutive windows ``[a, b)``, ``[b, c)`` partition the events
        (one at exactly ``until`` belongs to the next window), and unlike
        :meth:`run` the clocks are *not* advanced to ``until`` on
        exhaustion -- ``material_now`` reflects executed events only, so
        the reported run duration is the same as an unstepped run's.
        """
        if self._running:
            raise SimulationError("scheduler is not reentrant")
        self._running = True
        executed = 0
        try:
            while True:
                queue = self._queue
                if not queue or queue[0][_TIME] >= until:
                    break
                event = heapq.heappop(queue)
                if event[_CANCELLED]:
                    self._cancelled_pending -= 1
                    continue
                self._execute(event)
                executed += 1
        finally:
            self._running = False
        return executed
