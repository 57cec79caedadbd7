"""Watermark-delta codec for peer state transfer.

An anti-entropy resync that ships *full* summary snapshots to
a rejoining node is dominated by the snapshots on large windows, yet the
rejoining node restored most of that state from its checkpoint moments
ago -- only the entries that changed since the checkpoint watermark
actually need the wire.  This module provides the pieces the
state-transfer protocol (:mod:`repro.recovery.coordinator`) composes:

* a canonical, bit-exact payload encoding (:func:`encode_payload` /
  :func:`decode_payload`) shared by checkpoints and digests;
* :func:`payload_digest`, the content fingerprint a requester sends so
  the serving peer can verify they agree on the base state byte for
  byte before shipping a delta;
* a versioned delta codec (:func:`encode_delta` / :func:`apply_delta`)
  with the contract ``apply_delta(base, encode_delta(base, target))``
  reproduces ``target`` *bit for bit* -- comparisons are bitwise, so
  ``-0.0`` vs ``0.0`` and NaN payloads round-trip exactly;
* :func:`delta_wire_entries`, the honest wire cost of a delta in the
  simulator's 20-byte summary-entry unit (never above the full
  snapshot's cost);
* :class:`SummaryHistory`, the serving side's bounded ring of past
  snapshot versions -- a requester whose watermark fell off the ring
  gets the full-snapshot fallback.

Everything is deterministic: no randomness, sorted iteration orders,
and sha256 digests over the canonical encoding.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.net.message import SUMMARY_COEFFICIENT_BYTES

DELTA_FORMAT_VERSION = 1
"""Bump on any change to the delta blob layout; apply refuses mismatches."""


# ----------------------------------------------------------------------
# canonical payload encoding (shared by checkpoints and digests)
# ----------------------------------------------------------------------


def _pack_complex(value: complex) -> str:
    return struct.pack("<dd", value.real, value.imag).hex()


def _unpack_complex(encoded: str) -> complex:
    real, imag = struct.unpack("<dd", bytes.fromhex(encoded))
    return complex(real, imag)


def encode_payload(payload: Any) -> List[object]:
    """JSON-safe, canonical, bit-exact encoding of a summary payload.

    Supports the two remote-state shapes the policies keep: numpy
    counter arrays (Bloom, sketch) and ``{bin: complex}`` coefficient
    maps (DFT).  Map entries are sorted by key so the encoding -- and
    therefore :func:`payload_digest` -- is independent of dict insertion
    order.
    """
    if isinstance(payload, np.ndarray):
        from repro.recovery.checkpoint import encode_array

        return ["array", encode_array(payload)]
    if isinstance(payload, dict):
        return [
            "map",
            [[int(key), _pack_complex(complex(payload[key]))] for key in sorted(payload)],
        ]
    raise ConfigurationError(
        "cannot encode summary payload of type %s" % type(payload).__name__
    )


def decode_payload(encoded: List[object]) -> Any:
    """Inverse of :func:`encode_payload`."""
    if not isinstance(encoded, (list, tuple)) or len(encoded) != 2:
        raise ConfigurationError("malformed encoded summary payload %r" % (encoded,))
    kind, body = encoded
    if kind == "array":
        from repro.recovery.checkpoint import decode_array

        return decode_array(body)
    if kind == "map":
        try:
            return {int(key): _unpack_complex(value) for key, value in body}
        except (TypeError, ValueError, struct.error) as error:
            raise ConfigurationError("malformed encoded coefficient map: %s" % error)
    raise ConfigurationError("unknown encoded summary payload kind %r" % (kind,))


def payload_digest(payload: Any) -> str:
    """Content fingerprint of a payload over its canonical encoding.

    Truncated sha256 (16 bytes, hex): enough to make an accidental
    collision between two summary states a non-event, short enough that
    a handful of digests ride a request without modeling cost.
    """
    canonical = json.dumps(
        encode_payload(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:32]


# ----------------------------------------------------------------------
# delta codec
# ----------------------------------------------------------------------


def _bitwise_changed(base: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Flat indices of cells whose *bytes* differ (not value equality:
    ``-0.0 == 0.0`` and ``NaN != NaN`` would both corrupt bit-exactness)."""
    flat_base = np.ascontiguousarray(base).reshape(-1)
    flat_target = np.ascontiguousarray(target).reshape(-1)
    if flat_base.size == 0:
        return np.zeros(0, dtype=np.int64)
    base_bytes = flat_base.view(np.uint8).reshape(flat_base.size, flat_base.itemsize)
    target_bytes = flat_target.view(np.uint8).reshape(
        flat_target.size, flat_target.itemsize
    )
    return np.flatnonzero((base_bytes != target_bytes).any(axis=1))


def encode_delta(base: Any, target: Any) -> Optional[Dict[str, object]]:
    """Encode the change from ``base`` to ``target``; ``None`` when the
    two states are not delta-compatible (anything but two arrays of one
    dtype and shape) and the caller must ship the full snapshot instead."""
    if not (isinstance(base, np.ndarray) and isinstance(target, np.ndarray)):
        return None
    if base.dtype != target.dtype or base.shape != target.shape:
        return None
    changed = _bitwise_changed(base, target)
    values = np.ascontiguousarray(target).reshape(-1)[changed]
    return {
        "version": DELTA_FORMAT_VERSION,
        "kind": "array",
        "dtype": str(target.dtype),
        "shape": list(target.shape),
        "changed": [int(index) for index in changed],
        "values": values.tobytes().hex(),
    }


def apply_delta(base: Any, blob: Dict[str, object]) -> Any:
    """Reconstruct the target state: ``apply_delta(b, encode_delta(b, t))``
    equals ``t`` bit for bit.  Raises :class:`ConfigurationError` on an
    unknown blob version/kind, a base that does not match the blob, or a
    blob that is not what :func:`encode_delta` writes (indices strictly
    increasing inside the array, one value per index)."""
    if not isinstance(blob, dict):
        raise ConfigurationError("state-transfer delta must be a mapping")
    version = blob.get("version")
    if version != DELTA_FORMAT_VERSION:
        raise ConfigurationError(
            "state-transfer delta version %r does not match runtime version %d"
            % (version, DELTA_FORMAT_VERSION)
        )
    kind = blob.get("kind")
    if kind != "array":
        raise ConfigurationError("unknown state-transfer delta kind %r" % (kind,))
    if not isinstance(base, np.ndarray):
        raise ConfigurationError("array delta applied to non-array base")
    try:
        described = (blob["dtype"], list(blob["shape"]))
        indices = blob["changed"]
        if not isinstance(indices, list) or any(type(i) is not int for i in indices):
            raise ValueError("changed must be a list of integers")
        changed = np.asarray(indices, dtype=np.int64)
        values = np.frombuffer(bytes.fromhex(blob["values"]), dtype=base.dtype)
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError("malformed state-transfer delta: %s" % error)
    if described != (str(base.dtype), list(base.shape)):
        raise ConfigurationError(
            "array delta (%s%r) does not match base (%s%r)"
            % (described[0], tuple(described[1]), base.dtype, base.shape)
        )
    if values.size != changed.size:
        raise ConfigurationError(
            "array delta carries %d values for %d changed cells"
            % (values.size, changed.size)
        )
    if changed.size and (
        changed[0] < 0 or changed[-1] >= base.size or (np.diff(changed) <= 0).any()
    ):
        raise ConfigurationError(
            "array delta indices must be strictly increasing in [0, %d)" % base.size
        )
    result = np.ascontiguousarray(base).reshape(-1).copy()
    result[changed] = values
    return result.reshape(base.shape)


def delta_wire_entries(blob: Dict[str, object], full_entries: int) -> int:
    """Honest wire size of a delta, in 20-byte summary entries.

    A delta ships a changed-cell presence bitmap (one bit per cell) plus
    the changed cells at their pro-rata share of the full snapshot's
    wire bytes.  Clamped to the full snapshot's cost: a delta never
    models *more* bytes than simply resending everything, because a real
    implementation would do exactly that instead.
    """
    if blob["kind"] != "array":
        raise ConfigurationError("unknown state-transfer delta kind %r" % blob["kind"])
    total_cells = 1
    for extent in blob["shape"]:
        total_cells *= int(extent)
    if total_cells == 0 or full_entries == 0:
        return 0
    bytes_per_cell = full_entries * SUMMARY_COEFFICIENT_BYTES / total_cells
    wire_bytes = math.ceil(total_cells / 8.0) + len(blob["changed"]) * bytes_per_cell
    entries = int(math.ceil(wire_bytes / float(SUMMARY_COEFFICIENT_BYTES)))
    return min(full_entries, entries)


# ----------------------------------------------------------------------
# serving-side snapshot history
# ----------------------------------------------------------------------


class SummaryHistory:
    """Bounded ring of past snapshot payloads, keyed by version.

    Recorded by the :class:`~repro.core.summaries.SummaryOutbox` at
    broadcast time, consulted when serving a delta state transfer: a
    requester claiming version ``v`` gets a delta against the recorded
    view at ``v`` -- provided the ring still holds it *and* the digest
    matches.  Only full-state numpy snapshots (Bloom filters, sketch
    counters) are recorded; DFT coefficient maps are incremental merges
    whose receiver-side state depends on which broadcasts were actually
    delivered, so they always resync via full snapshots.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError("summary history limit must be >= 1")
        self.limit = limit
        self._views: Dict[Tuple[str, object], "OrderedDict[int, np.ndarray]"] = {}

    def record(self, update) -> None:
        """Remember one outgoing update's payload, if it is a snapshot."""
        if not update.full_state or not isinstance(update.payload, np.ndarray):
            return
        slot = self._views.setdefault((update.algorithm, update.stream), OrderedDict())
        slot[update.version] = update.payload
        slot.move_to_end(update.version)
        while len(slot) > self.limit:
            slot.popitem(last=False)

    def view(self, algorithm: str, stream, version: int) -> Optional[np.ndarray]:
        """The recorded payload at ``version``, or ``None`` if truncated."""
        slot = self._views.get((algorithm, stream))
        if slot is None:
            return None
        return slot.get(version)

    def clear(self) -> None:
        """Forget everything (a restarted node is a fresh incarnation:
        its version counter rolled back to the checkpoint, so stale
        views could collide with re-used version numbers)."""
        self._views.clear()
