"""Versioned, deterministic, byte-stable checkpoint blobs.

A checkpoint is a plain nested dictionary of JSON-safe values.  Numpy
arrays are encoded as ``{"dtype", "shape", "data"}`` with the raw buffer
hex-dumped, so restoring reproduces the array *bit for bit* (no float
round trip through decimal).  The blob is the canonical sorted-keys JSON
encoding of that dictionary -- the same state always produces the same
bytes, which is what the rerun-identity tests pin.

A subtree may arrive as :class:`Rendered`: its canonical text, kept by a
producer whose state changes at the edges only (a window between two
ticks, a remote summary between two versions).  :func:`encode_blob`
splices such text verbatim, so the bytes do not depend on which parts
were rendered when.

The codec knows nothing about policies or nodes; components expose
``checkpoint_state()`` / ``restore_state()`` pairs that speak plain
dictionaries, and
:meth:`repro.recovery.coordinator.RecoveryCoordinator.take_checkpoint`
assembles them into one blob per node.
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


def encode_tuple(item: StreamTuple) -> List[object]:
    """Positional, JSON-safe encoding of one stream tuple.

    The trailing ``0`` is the query id of the multi-query layout: blob
    bytes keep it until the checkpoint codec's re-pin drops it."""
    return [
        item.stream._value_,  # the attribute behind ``Enum.value``
        item.key,
        item.origin_node,
        item.arrival_index,
        item.payload,
        item.tuple_id,
        item.timestamp,
        0,
    ]


def decode_tuple(payload: List[object]) -> StreamTuple:
    """Inverse of :func:`encode_tuple` (preserves the tuple identity).

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


class Rendered:
    """Canonical JSON text standing in for the subtree it encodes."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
"""The one encoder every blob byte comes from (compact, sorted keys)."""


def window_state(window) -> Rendered:
    """Checkpoint one :class:`~repro.streams.window.SlidingWindow`.

    A window is a FIFO, so between two calls it changes at its ends
    only: the text of the tuples still in it is kept on the window
    (``checkpoint_text``, which :meth:`SlidingWindow.restore` drops) as
    one string plus the length of each tuple's share of it, and only
    tuples appended since the last call are encoded.
    """
    size, appended = len(window), window.total_appended
    seen, text, lengths = window.checkpoint_text or (appended, "", deque())
    # What survives is the old text's tail: every append since pushed
    # older tuples out first, by count, expiry or landmark reset alike.
    kept = size - (appended - seen)
    if not 0 <= kept <= len(lengths):
        kept = 0
    fresh = [
        canonical_json(encode_tuple(item))
        for item in itertools.islice(window, kept, None)
    ]
    gone = len(lengths) - kept
    cut = gone  # one separator per departed tuple
    for _ in range(gone):
        cut += lengths.popleft()
    lengths.extend(map(len, fresh))
    if kept:
        fresh.insert(0, text[cut:])
    text = ",".join(fresh)
    window.checkpoint_text = (appended, text, lengths)
    resets = getattr(window, "resets", None)
    head = "{" if resets is None else '{"resets":%d,' % resets
    return Rendered('%s"total_appended":%d,"tuples":[%s]}' % (head, appended, text))


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


def _splice(node: object) -> Optional[str]:
    """Text of a subtree holding :class:`Rendered` parts; ``None`` for a
    plain one, which the caller hands to the encoder whole."""
    if type(node) is Rendered:
        return node.text
    if isinstance(node, dict):
        keys = sorted(node)
        children = [node[key] for key in keys]
    elif isinstance(node, (list, tuple)):
        keys, children = None, node
    else:
        return None
    texts = [_splice(child) for child in children]
    if all(text is None for text in texts):
        return None
    texts = [
        canonical_json(child) if text is None else text
        for child, text in zip(children, texts)
    ]
    if keys is None:
        return "[%s]" % ",".join(texts)
    if not all(type(key) is str for key in keys):
        raise TypeError("keys beside rendered text must be strings")
    return "{%s}" % ",".join(
        "%s:%s" % (canonical_json(key), text) for key, text in zip(keys, texts)
    )


def encode_blob(state: Dict[str, object]) -> bytes:
    """The canonical byte encoding: compact sorted-keys JSON, the same
    bytes whether a subtree comes as values or as :class:`Rendered`."""
    text = _splice(state)
    return (canonical_json(state) if text is None else text).encode("ascii")


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
