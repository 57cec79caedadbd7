"""The run manifest: what exactly produced this result.

A result without its provenance is half a measurement.  The manifest
pins everything needed to reproduce or audit a run -- configuration
echo, seed, package version, interpreter and numpy versions -- and is attached to every :class:`~repro.core.results.RunResult`
(telemetry enabled or not; building it costs microseconds).

Determinism contract: the manifest contains no wall-clock timestamps,
hostnames, or process state, so two runs of the same configuration on
the same environment serialize byte-identically -- which is what lets
the JSONL export embed it and still diff clean across runs.
"""

from __future__ import annotations

import platform
from typing import Dict

import numpy as np

MANIFEST_SCHEMA_VERSION = 1


def build_manifest(config) -> Dict[str, object]:
    """Assemble the provenance record for one run of ``config``.

    ``config`` is any object with ``as_dict()`` and ``seed`` (duck-typed
    so this module never imports :mod:`repro.config`).
    """
    import repro

    telemetry = getattr(config, "telemetry", None)
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "package": "repro",
        "version": repro.__version__,
        "seed": int(getattr(config, "seed", 0)),
        # Constant since the naive-kernel switch was deleted; schema 1
        # keeps the field so every export and digest keeps its bytes.
        "kernel_mode": "fast",
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "config": config.as_dict(),
        "telemetry": {
            "enabled": bool(telemetry.enabled),
            "sample_interval_s": telemetry.sample_interval_s,
            "trace_messages": telemetry.trace_messages,
        }
        if telemetry is not None
        else {"enabled": False},
    }
