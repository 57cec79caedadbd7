"""The process-pool experiment runner.

Experiment cells are independent, seed-deterministic simulations -- the
shared-nothing shape that fans out perfectly.  :func:`run_many` takes a
list of :class:`RunRequest` cells, serves what it can from the cache,
dispatches the rest over a ``ProcessPoolExecutor`` (spawn context), and
merges results back **in submission order**, so every downstream
artifact -- figure rows, chaos tables, golden JSON, regression gates --
is byte-identical to the serial path.  It is the only way a sweep runs a
simulation: the cache is read and written in the parent, and a worker
runs nothing but :func:`execute_cell`.

A cell that is more than one simulation (a calibrated Figure 9 / 11
point bisects its budget, each probe depending on the last) is a
generator that yields each probe's config and receives its result;
:func:`run_cells` drives such cells through the same runner, submitting
a cell's next probe as soon as its last one is answered.

Three invariants make parallel == serial == cached:

* a run is a pure function of its config (no wall clock, no hostname,
  no process id ever enters a :class:`~repro.core.results.RunResult`);
* every cell starts from clean global state -- :func:`execute_cell`
  resets the tuple-id sequence and asserts both it and RNG construction
  are fresh, extending the per-run reset to subprocess workers;
* results are ordered by submission index, never completion order.

``jobs`` 0 or 1 is serial, the default: it never touches
multiprocessing at all.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple, TypeVar

from repro.config import SystemConfig
from repro.core.results import RunResult
from repro.errors import ConfigurationError, SimulationError
from repro.parallel.cache import ExtractorSpec, RunCache

Progress = Callable[[str], None]


def resolve_jobs(jobs: int = 0) -> int:
    """Worker count: an explicit positive ``jobs``, else 1 (serial)."""
    if jobs < 0:
        raise ConfigurationError("jobs must be positive, got %d" % jobs)
    return jobs or 1


@dataclass(frozen=True)
class RunRequest:
    """One cell of a sweep.

    ``extractors`` name values that must be read off the *live* system
    (e.g. the chaos sweep's worst-case-mode residency, reconstructed
    from telemetry events) as ``(name, "module:function")`` pairs; the
    string form crosses the process boundary where a closure cannot.
    Each function is called as ``fn(system, result)`` and must return a
    picklable value.
    """

    config: SystemConfig
    extractors: ExtractorSpec = ()
    label: str = ""


@dataclass(frozen=True)
class RunOutcome:
    """One cell's result plus its extracted extras."""

    result: RunResult
    extras: Dict[str, object] = field(default_factory=dict)


def _resolve_extractor(ref: str):
    module_name, _, attribute = ref.partition(":")
    if not module_name or not attribute:
        raise ConfigurationError(
            "extractor ref %r must look like 'module:function'" % ref
        )
    target = import_module(module_name)
    for part in attribute.split("."):
        target = getattr(target, part)
    return target


def execute_cell(
    config: SystemConfig, extractors: ExtractorSpec = ()
) -> Tuple[RunResult, Dict[str, object]]:
    """Run one simulation from clean global state; the pool entrypoint.

    Serial callers and subprocess workers share this function, so the
    determinism guards run everywhere: the tuple-id sequence is reset
    (and asserted fresh) and RNG construction is asserted to be a pure
    function of the seed.  A cached and a freshly computed cell are then
    equal field for field, and every artifact derived from either is
    byte-identical.
    """
    from repro._rng import ensure_rng
    from repro.core.system import DistributedJoinSystem
    from repro.streams.tuples import peek_next_tuple_ids, reset_tuple_ids

    reset_tuple_ids()
    if peek_next_tuple_ids() != 0:
        raise SimulationError(
            "tuple-id sequence did not reset to zero before a cell"
        )
    state_a = ensure_rng(config.seed).bit_generator.state
    state_b = ensure_rng(config.seed).bit_generator.state
    if state_a != state_b:
        raise SimulationError(
            "RNG construction is not a pure function of the seed; "
            "worker state would leak between cells"
        )
    system = DistributedJoinSystem(config)
    result = system.run()
    extras = {
        name: _resolve_extractor(ref)(system, result)
        for name, ref in extractors
    }
    return result, extras


# -- the runner --------------------------------------------------------

Output = TypeVar("Output")

Cell = Generator[SystemConfig, RunResult, Output]
"""A cell of several simulations: it yields the config of each run it
needs, receives that run's result, and returns the cell's output."""


def run_many(
    requests: Iterable[RunRequest],
    jobs: int = 0,
    cache: Optional[RunCache] = None,
    progress: Optional[Progress] = None,
) -> List[RunOutcome]:
    """Execute every request; outcomes come back in submission order.

    Every cache lookup and store happens here, in the parent (see
    :func:`_drive`), so ``cache``'s counters are complete at any ``jobs``.
    """
    return _drive([_once(request) for request in requests], jobs, cache, progress)


def run_configs(
    configs: Iterable[SystemConfig],
    jobs: int = 0,
    cache: Optional[RunCache] = None,
) -> List[RunResult]:
    """Plain config grid -> results, in order (the figure-sweep shape)."""
    requests = [RunRequest(config=config) for config in configs]
    return [outcome.result for outcome in run_many(requests, jobs=jobs, cache=cache)]


def run_cells(
    cells: Iterable[Cell[Output]],
    jobs: int = 0,
    cache: Optional[RunCache] = None,
) -> List[Output]:
    """Drive every cell to completion; outputs come back in cell order."""
    return _drive([_as_requests(cell) for cell in cells], jobs, cache, None)


def _once(request: RunRequest):
    return (yield request)


def _as_requests(cell: Cell):
    """A config -> result cell as a request -> outcome one."""
    result = None
    while True:
        try:
            config = cell.send(result)
        except StopIteration as stop:
            return stop.value
        result = (yield RunRequest(config=config)).result


def _drive(
    cells: List[Generator[RunRequest, RunOutcome, object]],
    jobs: int,
    cache: Optional[RunCache],
    progress: Optional[Progress],
) -> list:
    """The one runner: every sweep simulation is a request of some cell.

    A cell yields a :class:`RunRequest` and receives its
    :class:`RunOutcome`.  The cache is consulted (and written) in the
    parent only: hit/miss counters stay complete regardless of ``jobs``,
    workers never race on entry files and run nothing but
    :func:`execute_cell`, and a fully warm sweep starts no worker.
    Outcomes are collected (and stored) in submission order, and a
    cell's next request is submitted as soon as its last one is
    answered, so a calibration's probes queue behind the other cells'
    instead of waiting for a whole round to finish.
    """
    jobs = resolve_jobs(jobs)
    outputs: list = [None] * len(cells)
    running: deque = deque()  # (future, cell index, cache key, label)
    pool = None
    if jobs > 1:
        # Spawn-context workers start on the first submit, not here.
        pool = ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
        )

    def finish(key: Optional[str], computed) -> RunOutcome:
        result, extras = computed
        if cache is not None:
            cache.store(key, result, extras)
        return RunOutcome(result=result, extras=extras)

    def advance(index: int, outcome: Optional[RunOutcome]) -> None:
        """Answer cell ``index``; serve its requests until one goes to a
        worker or the cell returns."""
        while True:
            try:
                request = cells[index].send(outcome)  # type: ignore[arg-type]
            except StopIteration as stop:
                outputs[index] = stop.value
                return
            label = request.label or "cell %d" % index
            key = None
            if cache is not None:
                key = cache.key_for(request.config, request.extractors)
                entry = cache.lookup(key)
                if entry is not None:
                    if progress is not None:
                        progress(label + " [cached]")
                    outcome = RunOutcome(
                        result=entry["result"], extras=dict(entry.get("extras", {}))
                    )
                    continue
            if progress is not None:
                progress(label)
            if pool is None:
                outcome = finish(key, execute_cell(request.config, request.extractors))
                continue
            future = pool.submit(execute_cell, request.config, request.extractors)
            running.append((future, index, key, label))
            return

    with pool if pool is not None else nullcontext():
        for index in range(len(cells)):
            advance(index, None)
        while running:
            future, index, key, label = running.popleft()
            try:
                computed = future.result()
            except BrokenProcessPool as error:
                # A worker killed mid-cell (out of memory, a signal, an
                # extractor calling ``os._exit``) breaks the whole pool;
                # ``label`` is the first request it left unanswered.
                raise SimulationError(
                    "a pool worker process died before %s finished (%s)"
                    % (label, error)
                ) from error
            advance(index, finish(key, computed))
    return outputs
