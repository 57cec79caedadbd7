"""Parallel experiment execution and the deterministic run-result cache.

============================  =========================================
module                        provides
============================  =========================================
:mod:`repro.parallel.pool`    ``run_many`` / ``run_configs`` /
                              ``map_tasks`` -- spawn-context process
                              pool with submission-order merge;
                              ``resolve_jobs`` (``--jobs`` /
                              ``REPRO_JOBS``); ``execute_cell`` with
                              worker-side determinism guards
:mod:`repro.parallel.cache`   ``RunCache`` -- pickled ``RunResult``
                              entries under ``.repro-cache/`` keyed by
                              a canonical config fingerprint plus a
                              code-version salt
============================  =========================================

The contract: for the same requests and seeds, ``jobs=N`` output is
byte-identical to ``jobs=1`` output, and a cached result is
byte-identical to a freshly computed one.  See docs/performance.md,
"Parallel sweeps and the result cache".
"""

from repro.parallel.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    RunCache,
    canonical_config_dict,
    code_version,
    config_fingerprint,
    resolve_cache,
)
from repro.parallel.pool import (
    RunOutcome,
    RunRequest,
    cached_run,
    execute_cell,
    map_tasks,
    reset_simulation_counter,
    resolve_jobs,
    run_configs,
    run_many,
    simulations_run,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "RunCache",
    "RunOutcome",
    "RunRequest",
    "cached_run",
    "canonical_config_dict",
    "code_version",
    "config_fingerprint",
    "execute_cell",
    "map_tasks",
    "reset_simulation_counter",
    "resolve_cache",
    "resolve_jobs",
    "run_configs",
    "run_many",
    "simulations_run",
]
