"""Versioned, deterministic, byte-stable checkpoint blobs.

A checkpoint is a plain nested dictionary of JSON-safe values.  Numpy
arrays are encoded as ``{"dtype", "shape", "data"}`` with the raw buffer
hex-dumped, so restoring reproduces the array *bit for bit* (no float
round trip through decimal).  The blob is the canonical sorted-keys JSON
encoding of that dictionary -- the same state always produces the same
bytes, which is what the rerun-identity tests pin.

The codec knows nothing about policies or nodes; components expose
``checkpoint_state()`` / ``restore_state()`` pairs that speak plain
dictionaries, and :meth:`repro.core.node.JoinProcessingNode.take_checkpoint`
assembles them into one blob per node.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.streams.tuples import StreamId, StreamTuple

CHECKPOINT_VERSION = 2
"""Bump on any change to the blob layout; restore refuses mismatches.

Version 2 added the per-query ``remote`` section: the freshest remote
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


def encode_tuple(item: StreamTuple) -> List[object]:
    """Positional, JSON-safe encoding of one stream tuple."""
    return [
        item.stream._value_,  # the attribute behind ``Enum.value``
        item.key,
        item.origin_node,
        item.arrival_index,
        item.payload,
        item.tuple_id,
        item.timestamp,
        item.query_id,
    ]


def decode_tuple(payload: List[object]) -> StreamTuple:
    """Inverse of :func:`encode_tuple` (preserves the tuple identity)."""
    return StreamTuple(
        stream=StreamId(payload[0]),
        key=payload[1],
        origin_node=payload[2],
        arrival_index=payload[3],
        payload=payload[4],
        tuple_id=payload[5],
        timestamp=payload[6],
        query_id=payload[7],
    )


def window_state(window) -> Dict[str, object]:
    """Checkpoint one :class:`~repro.streams.window.SlidingWindow`."""
    state: Dict[str, object] = {
        "tuples": [encode_tuple(item) for item in window],
        "total_appended": window.total_appended,
    }
    resets = getattr(window, "resets", None)
    if resets is not None:
        state["resets"] = resets
    return state


def restore_window(window, state: Dict[str, object]) -> None:
    """Inverse of :func:`window_state` onto an identically-built window."""
    window.restore(
        [decode_tuple(item) for item in state["tuples"]],
        int(state["total_appended"]),
    )
    if "resets" in state:
        window.resets = int(state["resets"])


def encode_blob(state: Dict[str, object]) -> bytes:
    """The canonical byte encoding: compact sorted-keys JSON."""
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode("ascii")


def decode_blob(blob: bytes) -> Dict[str, object]:
    """Inverse of :func:`encode_blob`, checking the format version."""
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

    @property
    def size_bytes(self) -> int:
        return len(self.blob)

    def state(self) -> Dict[str, object]:
        return decode_blob(self.blob)


class CheckpointStore:
    """The simulated durable store: latest checkpoint per node.

    Only the newest snapshot is retained (the protocol never reads
    older ones), but the cumulative byte count of every write is kept --
    that is the checkpoint I/O cost the experiments report.
    """

    def __init__(self) -> None:
        self._latest: Dict[int, Checkpoint] = {}
        self.checkpoints_taken = 0
        self.bytes_written = 0

    def save(self, node_id: int, taken_at: float, blob: bytes) -> Checkpoint:
        checkpoint = Checkpoint(node_id=node_id, taken_at=taken_at, blob=blob)
        self._latest[node_id] = checkpoint
        self.checkpoints_taken += 1
        self.bytes_written += len(blob)
        return checkpoint

    def latest(self, node_id: int) -> Optional[Checkpoint]:
        return self._latest.get(node_id)
