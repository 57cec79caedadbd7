"""Stream tuple model.

A tuple is the unit of arrival, forwarding, and joining.  Only the joining
attribute (``key``) participates in the algorithms; the payload is opaque
and merely occupies bytes on the wire.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


class StreamId(enum.Enum):
    """The two joined streams of the paper's running example."""

    R = "R"
    S = "S"

    @property
    def other(self) -> "StreamId":
        """The opposite stream (R joins S and vice versa)."""
        return StreamId.S if self is StreamId.R else StreamId.R


_tuple_ids = itertools.count()


def reset_tuple_ids() -> None:
    """Restart the tuple-id sequence at zero.

    Ids only need to be unique within one run; the system resets the
    sequence at construction so a rerun of the same configuration mints
    the same ids.  Without this, checkpoint blobs (which encode
    ``tuple_id`` verbatim, because result-pair dedup keys on it) would
    grow by a few digits per in-process rerun and break the byte-identity
    guarantee the recovery tests pin.
    """
    global _tuple_ids
    _tuple_ids = itertools.count()


def peek_next_tuple_ids() -> int:
    """The id the next minted tuple would get, without consuming it.

    The parallel runner's worker entrypoint asserts this is 0 after its
    per-cell reset, so a cell computed in a pool worker pickles
    identically to one computed serially (or served from the cache).
    """
    global _tuple_ids
    value = next(_tuple_ids)
    _tuple_ids = itertools.count(value)
    return value


@dataclass(frozen=True, slots=True)
class StreamTuple:
    """One stream element.

    ``tuple_id`` is globally unique and identifies the tuple across
    forwarding hops, which lets the metrics layer count each *result pair*
    (r.tuple_id, s.tuple_id) exactly once.  Every tuple belongs to the
    run's one join query, R |><| S.
    """

    stream: StreamId
    key: int
    origin_node: int
    arrival_index: int
    payload: Any = None
    tuple_id: int = field(default_factory=lambda: next(_tuple_ids))
    timestamp: Optional[float] = None

    def with_timestamp(self, timestamp: float) -> "StreamTuple":
        """Copy of this tuple stamped with its simulated arrival time."""
        return StreamTuple(
            stream=self.stream,
            key=self.key,
            origin_node=self.origin_node,
            arrival_index=self.arrival_index,
            payload=self.payload,
            tuple_id=self.tuple_id,
            timestamp=timestamp,
        )
