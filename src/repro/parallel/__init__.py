"""Parallel experiment execution and the deterministic run-result cache.

============================  =========================================
module                        provides
============================  =========================================
:mod:`repro.parallel.pool`    ``run_many`` / ``run_configs`` /
                              ``run_cells`` -- spawn-context process
                              pool with submission-order merge, every
                              cache lookup in the parent;
                              ``resolve_jobs`` (``--jobs``);
                              ``execute_cell`` with worker-side
                              determinism guards
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
    Cell,
    RunOutcome,
    RunRequest,
    execute_cell,
    resolve_jobs,
    run_cells,
    run_configs,
    run_many,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "Cell",
    "DEFAULT_CACHE_DIR",
    "RunCache",
    "RunOutcome",
    "RunRequest",
    "canonical_config_dict",
    "code_version",
    "config_fingerprint",
    "execute_cell",
    "resolve_cache",
    "resolve_jobs",
    "run_cells",
    "run_configs",
    "run_many",
]
