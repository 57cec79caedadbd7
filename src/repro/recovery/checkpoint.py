"""Versioned, deterministic, byte-stable checkpoint blobs.

A checkpoint is a plain nested dictionary of JSON-safe values.  Numpy
arrays are encoded as ``{"dtype", "shape", "data"}`` with the raw buffer
hex-dumped, so restoring reproduces the array *bit for bit* (no float
round trip through decimal).  The blob is the canonical sorted-keys JSON
encoding of that dictionary -- the same state always produces the same
bytes, which is what the rerun-identity tests pin.

The sections that change at the edges only between two ticks (a window,
a remote summary table) are written as canonical text their producers
keep: :func:`window_state` here and
:meth:`repro.core.summaries.RemoteSummaryTable.checkpoint_text`.
:meth:`repro.recovery.coordinator.RecoveryCoordinator.take_checkpoint`
writes the blob's fixed layout around them; every other section goes
through :data:`canonical_json`.  Components expose
``checkpoint_state()`` / ``restore_state()`` pairs that speak plain
dictionaries.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.streams.tuples import StreamId, StreamTuple

CHECKPOINT_VERSION = 2
"""Bump on any change to the blob layout; restore refuses mismatches.

Version 2 added the ``remote`` section: the freshest remote
summaries known at checkpoint time, which the watermark-delta state
transfer uses as the resync base (see :mod:`repro.recovery.delta`).
"""


_dtype_name = functools.lru_cache(maxsize=32)(str)
"""``str(dtype)``, looked up once per dtype: numpy builds the name afresh
on every call (~5 us), and a run encodes arrays of one or two dtypes
thousands of times."""


def encode_array(array: np.ndarray) -> Dict[str, object]:
    """Bit-exact, JSON-safe encoding of a numpy array."""
    return {
        "dtype": _dtype_name(array.dtype),
        "shape": list(array.shape),
        "data": array.tobytes().hex(),
    }


def decode_array(payload: Dict[str, object]) -> np.ndarray:
    """Inverse of :func:`encode_array` (returns a fresh writable array).

    Raises :class:`SimulationError` unless the buffer is exactly
    ``prod(shape)`` items of the named dtype."""
    try:
        dtype = np.dtype(payload["dtype"])
        shape = tuple(payload["shape"])
        data = bytes.fromhex(payload["data"])
        if str(dtype) != payload["dtype"]:
            raise ValueError("dtype %r" % (payload["dtype"],))
        if any(type(extent) is not int or extent < 0 for extent in shape):
            raise ValueError("shape %r" % (shape,))
        if len(data) != math.prod(shape) * dtype.itemsize:
            raise ValueError("%d bytes for %s%r" % (len(data), dtype, shape))
        return np.frombuffer(data, dtype=dtype).reshape(shape).copy()
    except (KeyError, TypeError, ValueError) as error:
        raise SimulationError("malformed encoded array: %s" % error)


def decode_tuple(payload: List[object]) -> StreamTuple:
    """Inverse of :func:`tuple_text`, after JSON decoding (preserves the
    tuple identity).

    Raises :class:`SimulationError` unless ``payload`` is a list of the
    eight fields naming a known stream and ending in the ``0`` echo."""
    try:
        if not isinstance(payload, list):
            raise TypeError("%s is not a list" % type(payload).__name__)
        stream, key, origin, index, body, tuple_id, timestamp, echo = payload
        if echo != 0:
            raise ValueError("trailing field %r is not 0" % (echo,))
        return StreamTuple(
            stream=StreamId(stream),
            key=key,
            origin_node=origin,
            arrival_index=index,
            payload=body,
            tuple_id=tuple_id,
            timestamp=timestamp,
        )
    except (TypeError, ValueError) as error:
        raise SimulationError("malformed encoded tuple: %s" % error)


canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
"""The one encoder every blob byte comes from (compact, sorted keys)."""


def tuple_text(item: StreamTuple) -> str:
    """Canonical JSON text of one stream tuple, positionally:
    ``[stream, key, origin, arrival index, payload, tuple id, timestamp, 0]``.

    The trailing ``0`` is the query id of the multi-query layout: blob
    bytes keep it until the checkpoint codec's re-pin drops it.  A plain
    tuple -- no payload, int fields and a finite float timestamp, as
    every arrival of a run is -- is formatted directly: ``%d`` of an int
    and ``repr`` of a finite float are the JSON encoder's own spellings,
    and a stream's value is ``"R"`` or ``"S"``.  Anything else goes
    through :data:`canonical_json`.
    """
    key, origin, index = item.key, item.origin_node, item.arrival_index
    tuple_id, timestamp = item.tuple_id, item.timestamp
    if (
        item.payload is None
        and type(timestamp) is float
        and math.isfinite(timestamp)
        and type(key) is int
        and type(origin) is int
        and type(index) is int
        and type(tuple_id) is int
    ):
        return '["%s",%d,%d,%d,null,%d,%r,0]' % (
            item.stream._value_, key, origin, index, tuple_id, timestamp
        )
    # ``_value_`` is the attribute behind ``Enum.value``.
    return canonical_json(
        [item.stream._value_, key, origin, index, item.payload, tuple_id, timestamp, 0]
    )


def window_state(window) -> str:
    """Canonical JSON text of one :class:`~repro.streams.window.SlidingWindow`.

    A window is a FIFO, so between two calls it changes at its ends
    only.  The last text is kept on the window (``rendered``, which
    :meth:`SlidingWindow.restore` drops) with the length of each tuple's
    share of it: a window with no append and no change of length since
    returns that text, and any other drops from the left what left and
    encodes only the tuples appended since.
    """
    size, appended = len(window), window.total_appended
    remembered = window.rendered
    if remembered is None:
        seen, text, start, lengths = appended, "", 0, deque()
    else:
        seen, text, start, lengths = remembered
        if appended == seen and size == len(lengths):
            return text
    # What survives is the old text's tail: every append since pushed
    # older tuples out first, by count, expiry or landmark reset alike.
    kept = size - (appended - seen)
    if not 0 <= kept <= len(lengths):
        kept = 0
    fresh = [tuple_text(item) for item in itertools.islice(window, kept, None)]
    gone = len(lengths) - kept
    cut = start + gone  # past the head, and one separator per departed tuple
    for _ in range(gone):
        cut += lengths.popleft()
    lengths.extend(map(len, fresh))
    if kept:
        fresh.insert(0, text[cut:-2])
    resets = getattr(window, "resets", None)
    head = "{" if resets is None else '{"resets":%d,' % resets
    head += '"total_appended":%d,"tuples":[' % appended
    text = "%s%s]}" % (head, ",".join(fresh))
    window.rendered = (appended, text, len(head), lengths)
    return text


def restore_window(window, state: Dict[str, object]) -> None:
    """Inverse of :func:`window_state` onto an identically-built window.

    Raises :class:`SimulationError` on a section that is not what
    :func:`window_state` writes."""
    try:
        tuples = state["tuples"]
        if not isinstance(tuples, list):
            raise TypeError("tuples is not a list")
        total_appended = int(state["total_appended"])
        resets = int(state["resets"]) if "resets" in state else None
    except (KeyError, TypeError, ValueError) as error:
        raise SimulationError("malformed window section: %r" % (error,))
    window.restore([decode_tuple(item) for item in tuples], total_appended)
    if resets is not None:
        window.resets = resets


def decode_blob(blob: bytes) -> Dict[str, object]:
    """Parse a blob, checking the format version."""
    try:
        state = json.loads(blob.decode("ascii"))
    except ValueError as error:  # not ASCII, or not JSON
        raise SimulationError("checkpoint blob is not valid JSON: %s" % error)
    if not isinstance(state, dict):
        raise SimulationError("checkpoint blob must encode a JSON object")
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise SimulationError(
            "checkpoint version %r does not match runtime version %d"
            % (version, CHECKPOINT_VERSION)
        )
    return state


@dataclass(frozen=True)
class Checkpoint:
    """One durable per-node snapshot: the blob plus its watermark."""

    node_id: int
    taken_at: float
    blob: bytes

    def state(self) -> Dict[str, object]:
        return decode_blob(self.blob)


class CheckpointStore:
    """The simulated durable store: latest checkpoint per node.

    Only the newest snapshot is retained (the protocol never reads
    older ones); the checkpoint I/O cost the experiments report is the
    coordinators' ``checkpoint_bytes``.
    """

    def __init__(self) -> None:
        self._latest: Dict[int, Checkpoint] = {}

    def save(self, node_id: int, taken_at: float, blob: bytes) -> Checkpoint:
        checkpoint = Checkpoint(node_id=node_id, taken_at=taken_at, blob=blob)
        self._latest[node_id] = checkpoint
        return checkpoint

    def latest(self, node_id: int) -> Optional[Checkpoint]:
        return self._latest.get(node_id)
