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

The phase-1 keys are what make the sharded execution engine
(:mod:`repro.engine`) possible: a key derived from global insertion
order cannot be reproduced when the event population is split across
processes, but an entity-local key can -- each entity lives in exactly
one shard and replays exactly its serial history.  The serial engine
orders by the same keys, so serial and sharded runs execute every
entity's events in the same order.

Events also carry a ``home``: the node the event belongs to, or ``None``
for run-global events (telemetry ticks, fault edges).  The serial engine
ignores it; the sharded engine prunes non-home events after replicated
construction and counts ``home=None`` events on one shard only.

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
    history, never on global insertion order, which is what keeps them
    identical between the serial and the sharded engine.
    """

    __slots__ = ("rank", "_next")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._next = 0

    def next_key(self) -> EventKey:
        key = (self.rank, self._next)
        self._next += 1
        return key


_TIME, _PHASE, _RANK, _SEQ, _TIE, _CALLBACK, _MATERIAL, _HOME, _CANCELLED, _OWNER = range(10)


class Event(list):
    """A scheduled callback, and its own entry in the scheduler's heap.

    An event *is* the list ``[time, phase, rank, seq, tie, callback,
    material, home, cancelled, owner]``, so the heap orders events with
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
    home = property(itemgetter(_HOME))
    cancelled = property(itemgetter(_CANCELLED))

    @property
    def sort_key(self) -> Tuple[float, int, int, int]:
        return tuple(self[:_TIE])

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when its time comes."""
        if self[_CANCELLED]:
            return
        self[_CANCELLED] = True
        self[_OWNER]._note_cancelled()

    def __repr__(self) -> str:
        return (
            "Event(time=%r, phase=%r, rank=%r, seq=%r, callback=%r, "
            "cancelled=%r, material=%r, home=%r)"
            % (*self.sort_key, self.callback, self.cancelled, self.material, self.home)
        )


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
        self._sequence = itertools.count()
        """Phase-0 ``seq`` values: counts unkeyed events only, so a
        sharded worker mints the same ones as the serial engine."""
        self._insertions = itertools.count()
        """Every event's ``tie`` (see :class:`Event`)."""
        self._now = 0.0
        self._material_now = 0.0
        self._running = False
        self._events_processed = 0
        self._cancelled_pending = 0
        self.compactions = 0
        self.telemetry = None
        """Optional :class:`repro.telemetry.TelemetryHub`; when set,
        heap compactions are emitted as scheduler events."""
        self.count_global_events = True
        """Whether ``home=None`` events increment :attr:`events_processed`.
        The sharded engine replicates global events on every shard and
        counts them on shard 0 only, so the merged total matches serial."""
        self._current: Optional[Event] = None
        self._home_filtered = False
        """Set by :meth:`retain_events`: the queue was pruned to a home
        subset, so :meth:`pending_accountable` must filter rather than
        shortcut to :attr:`pending`."""

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def material_now(self) -> float:
        """Simulated time of the last *material* event processed.

        Observation-only events (telemetry sampling ticks, scheduled with
        ``material=False``) advance :attr:`now` but not this clock, so a
        run's reported duration is identical with telemetry on or off.
        """
        return self._material_now

    @property
    def current_key(self) -> Optional[Tuple[float, int, int, int]]:
        """Sort key of the currently executing event (``None`` outside the
        loop).  Telemetry stamps emissions with it to define a canonical
        cross-shard event order."""
        return None if self._current is None else self._current.sort_key

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled_pending

    def pending_accountable(self) -> int:
        """Live queued events this scheduler is *accountable* for.

        Serial: identical to :attr:`pending`.  Sharded workers: home
        events plus -- on the one shard with ``count_global_events`` --
        the replicated run-global events, mirroring how
        :attr:`events_processed` counts.  Summing the value across
        shards therefore reproduces the serial pending count exactly.
        """
        if not self._home_filtered:
            return self.pending
        return sum(
            1
            for event in self._queue
            if not event.cancelled
            and (event.home is not None or self.count_global_events)
        )

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
                time=self._now,
                dropped=before - len(self._queue),
                remaining=len(self._queue),
            )

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        material: bool = True,
        key: Optional[EventKey] = None,
        home: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Scheduling in the past is an error: the clock only moves forward.
        ``material=False`` marks an observation-only event (telemetry
        sampling) that must not advance :attr:`material_now`.  ``key``
        is an entity-local ``(rank, seq)`` from an
        :class:`EventKeySource` (phase 1); without one the event is
        phase 0 and ties break by insertion order.  ``home`` names the
        owning node (``None`` = run-global).
        """
        if time < self._now:
            raise SimulationError(
                "cannot schedule at t=%g; clock is already at t=%g" % (time, self._now)
            )
        if key is None:
            phase, rank, seq = 0, 0, next(self._sequence)
        else:
            phase = 1
            rank, seq = key
        event = Event(
            (time, phase, rank, seq, next(self._insertions),
             callback, material, home, False, self)
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        material: bool = True,
        key: Optional[EventKey] = None,
        home: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError("delay must be non-negative, got %g" % delay)
        return self.schedule_at(self._now + delay, callback, material, key, home)

    def retain_events(self, predicate: Callable[[Event], bool]) -> int:
        """Keep only events matching ``predicate``; returns removed count.

        The sharded engine's pruning step after replicated construction:
        every shard builds the full event population, then keeps its home
        nodes' events plus the run-global ones.  Cancelled entries are
        dropped regardless.
        """
        before = len(self._queue)
        self._queue = [
            event
            for event in self._queue
            if not event.cancelled and predicate(event)
        ]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0
        self._home_filtered = True
        return before - len(self._queue)

    def next_event_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` on an empty queue."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
            self._cancelled_pending -= 1
        return self._queue[0].time if self._queue else None

    def _execute(self, event: Event) -> None:
        time, _, _, _, _, callback, material, home, _, _ = event
        self._now = time
        if material:
            self._material_now = time
        self._current = event
        callback()
        if home is not None or self.count_global_events:
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
                    if until is not None and self._now < until:
                        self._now = until
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
            self._current = None
        return self._now

    def run_window(self, until: float) -> int:
        """Execute every event with ``time < until``; return the count.

        The sharded engine's round body: strictly-less-than keeps round
        boundaries consistent across shards (an event at exactly the
        horizon belongs to the next round), and unlike :meth:`run` the
        clocks are *not* advanced to ``until`` on exhaustion -- the final
        ``material_now`` must reflect real events only, so the merged
        run duration equals the serial one.
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
            self._current = None
        return executed

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        """
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._execute(event)
            self._current = None
            return True
        return False
