"""The on-disk run-result cache.

A run is a pure function of its :class:`~repro.config.SystemConfig`
(see docs/architecture.md, "Determinism"), which makes experiment cells
memoizable: the cache keys each cell by a canonical hash of its fully
resolved configuration and stores the pickled
:class:`~repro.core.results.RunResult` under ``.repro-cache/``.  A sweep
rerun then recomputes only the cells whose configuration -- or whose
*code* -- changed.

Two conventions keep the key honest:

* **Canonical encoding.**  The fingerprint walks the entire config
  dataclass tree (policy, workload, link, faults, reliability,
  telemetry, recovery -- not the flat ``as_dict`` echo) into plain JSON
  types and serializes with sorted keys and fixed separators, the same
  codec discipline :mod:`repro.recovery.checkpoint` uses for its
  byte-stable blobs.
* **Code-version salt.**  ``repro.__version__`` is static between
  releases, so the salt instead hashes every ``.py`` source file in the
  package.  Any source edit therefore invalidates the whole cache --
  conservative by design: a stale hit would silently mask a regression
  in the golden-pinned sweeps.  ``--no-cache`` recomputes everything.

Cache entries are written atomically (temp file + ``os.replace``) so
concurrent workers and interrupted runs can never leave a torn entry.
An entry file is the sha256 of its pickle bytes followed by those bytes;
:meth:`RunCache.lookup` verifies the digest *before* unpickling, so a
truncated or bit-flipped file (a flipped bit inside a pickled float
unpickles without complaint) is never served: anything that fails to
read, verify or unpickle is deleted and treated as a miss.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError

CACHE_SCHEMA_VERSION = 2
"""Bump when the entry payload layout changes; old entries become misses.
Version 2 prefixed the pickle with its sha256."""

_DIGEST_BYTES = hashlib.sha256().digest_size

DEFAULT_CACHE_DIR = ".repro-cache"
"""Where entries live unless ``REPRO_CACHE_DIR`` or ``--cache-dir`` says
otherwise."""

ExtractorSpec = Tuple[Tuple[str, str], ...]
"""``(name, "module:function")`` pairs; part of the key because extras
are stored alongside the result."""


def canonical_value(value: object) -> object:
    """Recursively coerce a config value into plain JSON types.

    Dataclasses become field dicts, enums their values, tuples lists.
    Anything else (a live object, a generator) is a configuration that
    cannot be fingerprinted -- fail loudly rather than hash its repr.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical_value(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical_value(item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        "cannot fingerprint a %s for the run cache" % type(value).__name__
    )


def canonical_config_dict(config) -> Dict[str, object]:
    """The full config tree as sorted-key-JSON-ready plain types."""
    tree = canonical_value(config)
    if not isinstance(tree, dict):
        raise ConfigurationError("config must be a dataclass, got %r" % (config,))
    return tree


_code_version: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro`` source file: the cache's code salt.

    Computed once per process.  ``math.inf`` link bandwidths and similar
    are irrelevant here -- this hashes the *source text*, so any edit
    anywhere in the package (kernels, policies, experiments) invalidates
    every cached cell.
    """
    global _code_version
    if _code_version is None:
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for directory, _dirnames, filenames in sorted(os.walk(package_root)):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, package_root).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        digest.update(repro.__version__.encode("utf-8"))
        _code_version = digest.hexdigest()
    return _code_version


def config_fingerprint(config, extractors: ExtractorSpec = ()) -> str:
    """The cache key for one cell: sha256 over the canonical payload."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "code": code_version(),
        "config": canonical_config_dict(config),
        "extractors": [[name, ref] for name, ref in extractors],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class RunCache:
    """Pickled ``(result, extras)`` entries keyed by config fingerprint.

    Counters are per-instance: every sweep looks entries up and stores
    them in the *parent* before and after dispatching work, so a sweep's
    hit/miss tally is complete regardless of ``--jobs``.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- keys ----------------------------------------------------------

    def key_for(self, config, extractors: ExtractorSpec = ()) -> str:
        return config_fingerprint(config, extractors)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".pkl")

    # -- lookup / store ------------------------------------------------

    def lookup(self, key: str) -> Optional[Dict[str, object]]:
        """The stored entry for ``key``, or ``None`` (counted as a miss).

        A torn, corrupted or stale-format entry is deleted and reported
        as a miss: recomputing a cell is always safe, serving bad bytes
        never is.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            data = b""
        entry = None
        digest, payload = data[:_DIGEST_BYTES], data[_DIGEST_BYTES:]
        if hashlib.sha256(payload).digest() == digest:
            try:
                entry = pickle.loads(payload)
            except Exception:
                # Verified bytes that still do not load were written by
                # other code (a class moved, a foreign file): recompute.
                pass
        if not isinstance(entry, dict) or "result" not in entry:
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(self, key: str, result, extras: Dict[str, object]) -> None:
        """Atomically persist one cell (temp file + rename)."""
        path = self._path(key)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        payload = pickle.dumps(
            {"result": result, "extras": dict(extras)},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        descriptor, temp_path = tempfile.mkstemp(dir=parent, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(hashlib.sha256(payload).digest())
                handle.write(payload)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.remove(temp_path)
            except OSError:
                pass
            raise
        self.stores += 1

    # -- reporting -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def stats_line(self) -> str:
        """The one-line summary the CLIs print (and CI greps)."""
        return "cache hits=%d misses=%d stores=%d dir=%s" % (
            self.hits,
            self.misses,
            self.stores,
            self.directory,
        )

    def write_manifest(self, extra: Optional[Dict[str, object]] = None) -> str:
        """Persist the sweep-level cache manifest next to the entries.

        Cache provenance deliberately lives *here*, not inside
        ``RunResult.manifest`` -- a cached and a fresh result must pickle
        identically, so nothing about how a result was obtained may enter
        the result itself.
        """
        os.makedirs(self.directory, exist_ok=True)
        payload: Dict[str, object] = {
            "schema": CACHE_SCHEMA_VERSION,
            "code_version": code_version(),
            "directory": self.directory,
        }
        payload.update(self.stats())
        if extra:
            payload.update(extra)
        path = os.path.join(self.directory, "cache-manifest.json")
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def resolve_cache(
    no_cache: bool = False, cache_dir: str = ""
) -> Optional[RunCache]:
    """CLI glue: ``--no-cache`` / ``--cache-dir`` into a cache (or None)."""
    if no_cache:
        return None
    return RunCache(cache_dir or None)
