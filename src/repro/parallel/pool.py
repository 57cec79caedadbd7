"""The process-pool experiment runner.

Experiment cells are independent, seed-deterministic simulations -- the
shared-nothing shape that fans out perfectly.  :func:`run_many` takes a
list of :class:`RunRequest` cells, dispatches the uncached ones over a
``ProcessPoolExecutor`` (spawn context, ``REPRO_*`` environment
propagated to every worker), and merges results back **in submission
order**, so every downstream artifact -- figure rows, chaos tables,
golden JSON, regression gates -- is byte-identical to the serial path.

Three invariants make parallel == serial == cached:

* a run is a pure function of its config (no wall clock, no hostname,
  no process id ever enters a :class:`~repro.core.results.RunResult`);
* every cell starts from clean global state -- :func:`execute_cell`
  resets the tuple-id sequence and asserts both it and RNG construction
  are fresh, extending the per-run reset to subprocess workers;
* results are ordered by submission index, never completion order.

``--jobs`` resolution: an explicit positive value wins, else the
``REPRO_JOBS`` environment variable, else 1 (serial, the default --
``jobs=1`` never touches multiprocessing at all, so existing callers
are bit-for-bit unaffected).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.results import RunResult
from repro.errors import ConfigurationError, SimulationError
from repro.parallel.cache import ExtractorSpec, RunCache

Progress = Callable[[str], None]

_simulations = 0


def simulations_run() -> int:
    """Simulations executed *in this process* since the last reset.

    The cache-hit tests pin this: a warm sweep at ``jobs=1`` must leave
    the counter untouched.  Worker processes keep their own counts.
    """
    return _simulations


def reset_simulation_counter() -> None:
    global _simulations
    _simulations = 0


def resolve_jobs(jobs: int = 0) -> int:
    """Worker count: explicit ``jobs`` > ``REPRO_JOBS`` > 1 (serial)."""
    if jobs < 0:
        raise ConfigurationError("jobs must be positive, got %d" % jobs)
    if jobs:
        return jobs
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError("REPRO_JOBS must be an integer, got %r" % raw)
    if value < 1:
        raise ConfigurationError("REPRO_JOBS must be >= 1, got %d" % value)
    return value


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
    cached: bool = False


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

    global _simulations
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
    _simulations += 1
    extras = {
        name: _resolve_extractor(ref)(system, result)
        for name, ref in extractors
    }
    return result, extras


# -- worker environment ------------------------------------------------


def _repro_env() -> Dict[str, str]:
    return {
        key: value
        for key, value in os.environ.items()
        if key.startswith("REPRO_")
    }


def _worker_init(env: Dict[str, str]) -> None:
    """Mirror the parent's ``REPRO_*`` environment exactly.

    Spawned workers inherit the environment at fork-server/spawn time,
    which can predate parent-side changes (a harness exporting
    ``REPRO_CACHE_SALT``, a test monkeypatching it); the initializer
    re-synchronizes so worker cells resolve the same knobs the parent
    would.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        if key not in env:
            del os.environ[key]
    os.environ.update(env)


def _pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_worker_init,
        initargs=(_repro_env(),),
    )


def _result(future: Future, label: str):
    """``future.result()``; a pool worker that died is a ``ReproError``.

    A worker killed mid-cell (out of memory, a signal, an extractor
    calling ``os._exit``) breaks the whole pool: every cell it had not
    finished raises ``BrokenProcessPool``.  ``label`` is the first of
    those in submission order.
    """
    try:
        return future.result()
    except BrokenProcessPool as error:
        raise SimulationError(
            "a pool worker process died before %s finished (%s)" % (label, error)
        ) from error


# -- the runner --------------------------------------------------------


def run_many(
    requests: Iterable[RunRequest],
    jobs: int = 0,
    cache: Optional[RunCache] = None,
    progress: Optional[Progress] = None,
) -> List[RunOutcome]:
    """Execute every request; outcomes come back in submission order.

    The cache is consulted (and written) in the parent only: hit/miss
    counters stay complete regardless of ``jobs``, workers never race on
    entry files, and a fully warm sweep dispatches zero work -- it does
    not even build a pool.
    """
    jobs = resolve_jobs(jobs)
    requests = list(requests)
    outcomes: List[Optional[RunOutcome]] = [None] * len(requests)
    pending: List[Tuple[int, RunRequest, Optional[str]]] = []
    for index, request in enumerate(requests):
        key = None
        if cache is not None:
            key = cache.key_for(request.config, request.extractors)
            entry = cache.lookup(key)
            if entry is not None:
                outcomes[index] = RunOutcome(
                    result=entry["result"],
                    extras=dict(entry.get("extras", {})),
                    cached=True,
                )
                if progress is not None:
                    progress(
                        (request.label or "cell %d" % index) + " [cached]"
                    )
                continue
        pending.append((index, request, key))
    if pending and (jobs == 1 or len(pending) == 1):
        for index, request, key in pending:
            if progress is not None:
                progress(request.label or "cell %d" % index)
            result, extras = execute_cell(request.config, request.extractors)
            outcomes[index] = RunOutcome(result=result, extras=extras)
            if cache is not None:
                cache.store(key, result, extras)
    elif pending:
        with _pool(min(jobs, len(pending))) as pool:
            futures = []
            for index, request, key in pending:
                label = request.label or "cell %d" % index
                if progress is not None:
                    progress(label)
                future = pool.submit(
                    execute_cell, request.config, request.extractors
                )
                futures.append((index, key, label, future))
            for index, key, label, future in futures:
                result, extras = _result(future, label)
                outcomes[index] = RunOutcome(result=result, extras=extras)
                if cache is not None:
                    cache.store(key, result, extras)
    return outcomes  # type: ignore[return-value]


def run_configs(
    configs: Iterable[SystemConfig],
    jobs: int = 0,
    cache: Optional[RunCache] = None,
    progress: Optional[Progress] = None,
    labels: Optional[Sequence[str]] = None,
) -> List[RunResult]:
    """Plain config grid -> results, in order (the figure-sweep shape)."""
    configs = list(configs)
    if labels is not None and len(labels) != len(configs):
        raise ConfigurationError(
            "got %d labels for %d configs" % (len(labels), len(configs))
        )
    requests = [
        RunRequest(config=config, label=labels[index] if labels else "")
        for index, config in enumerate(configs)
    ]
    return [
        outcome.result
        for outcome in run_many(requests, jobs=jobs, cache=cache, progress=progress)
    ]


def cached_run(
    config: SystemConfig, cache: Optional[RunCache] = None
) -> RunResult:
    """One cell through the cache; the calibration probes' runner.

    Keys match :func:`run_many`'s extractor-free requests, so a cell a
    figure sweep computed is reusable by a calibration probe and vice
    versa.
    """
    if cache is None:
        result, _extras = execute_cell(config)
        return result
    key = cache.key_for(config)
    entry = cache.lookup(key)
    if entry is not None:
        return entry["result"]
    result, _extras = execute_cell(config)
    cache.store(key, result, {})
    return result


def map_tasks(
    fn: Callable,
    payloads: Iterable[object],
    jobs: int = 0,
    progress: Optional[Progress] = None,
    labels: Optional[Sequence[str]] = None,
) -> List[object]:
    """Fan a top-level function over payloads; results in order.

    For cells that are more than one simulation (the Figure 9/11
    calibration bisections), ``fn`` must be module-level (spawn pickles
    it by reference) and payloads/returns must be picklable.  ``jobs=1``
    calls ``fn`` inline -- the exact serial code path.
    """
    jobs = resolve_jobs(jobs)
    payloads = list(payloads)
    if labels is not None and len(labels) != len(payloads):
        raise ConfigurationError(
            "got %d labels for %d payloads" % (len(labels), len(payloads))
        )

    def note(index: int) -> str:
        label = labels[index] if labels else "task %d" % index
        if progress is not None:
            progress(label)
        return label

    if jobs == 1 or len(payloads) <= 1:
        results = []
        for index, payload in enumerate(payloads):
            note(index)
            results.append(fn(payload))
        return results
    with _pool(min(jobs, len(payloads))) as pool:
        futures = []
        for index, payload in enumerate(payloads):
            label = note(index)
            futures.append((label, pool.submit(fn, payload)))
        return [_result(future, label) for label, future in futures]
