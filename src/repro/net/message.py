"""Message types and the byte-level size model.

Sizes matter twice in the reproduction: serialization delay on 90 kbps
links (throughput, Figure 11) and the coefficient-overhead percentage
(Figure 8).  Rather than pickling real objects we model message sizes from
first principles, mirroring what the C++ prototype would put on the wire:

* every message carries a fixed header (source, destination, kind,
  sequence number, timestamps) -- a :class:`Message` object holds no
  destination (the link it leaves on does), but the modelled header
  still counts one per copy;
* a forwarded tuple carries its key and payload;
* a summary update carries one complex coefficient (two IEEE-754 doubles)
  plus a coefficient index per entry, or the equivalently-sized Bloom /
  sketch fragment (the experiments size all summaries identically, as the
  paper does).
"""

from __future__ import annotations

import enum
from dataclasses import KW_ONLY, dataclass, field
from typing import Any, Optional

HEADER_BYTES = 24
"""Fixed per-message framing: ids, kind, sequence number, send timestamp."""

TUPLE_KEY_BYTES = 8
"""The joining attribute, a 64-bit integer."""

TUPLE_PAYLOAD_BYTES = 40
"""Non-key tuple payload (the paper joins trade / packet records)."""

SUMMARY_COEFFICIENT_BYTES = 20
"""One summary entry: complex coefficient (16 bytes) + 4-byte index.

Bloom-filter fragments and sketch fragments are sized identically so the
summary-size axis of Figure 10(a) is comparable across algorithms, exactly
as Section 6 prescribes ("we adjust the size of the Bloom filters, sketches
and DFT coefficients to be the same").
"""

class MessageKind(enum.Enum):
    """Wire-level message categories, used for traffic accounting."""

    TUPLE = "tuple"
    """A forwarded stream tuple (possibly with piggy-backed summary deltas)."""

    SUMMARY = "summary"
    """A standalone summary-update message (no tuple aboard)."""

    RESULT = "result"
    """A reported join-result tuple."""

    CONTROL = "control"
    """Query dissemination and other control-plane traffic."""

    ACK = "ack"
    """Reliable-channel acknowledgement (header-only; see repro.net.reliable)."""

    HEARTBEAT = "heartbeat"
    """Liveness probe for the failure detector (header-only)."""

    STATE_TRANSFER = "state_transfer"
    """Recovery anti-entropy traffic (see repro.recovery): requests are
    header-only (watermark-delta claims ride the fixed framing, like
    ``seq``); responses carry summary entries like any summary -- the
    full snapshot's entries, or the honest, smaller delta footprint when
    the watermark-delta protocol applies (the serving node still pauses
    for the full-snapshot size; see repro.recovery.delta)."""


_BODY_BYTES = {
    MessageKind.TUPLE.value: TUPLE_KEY_BYTES + TUPLE_PAYLOAD_BYTES,
    MessageKind.RESULT.value: TUPLE_KEY_BYTES + TUPLE_PAYLOAD_BYTES,
    MessageKind.CONTROL.value: TUPLE_KEY_BYTES,
}
"""Tuple/result/control body by kind *value* (a string hashes in C, an
enum member through a Python ``__hash__``); every other kind is
header-only apart from its summary entries."""


@dataclass(slots=True)
class Message:
    """A simulated network message: what is sent, not where it goes.

    The destination belongs to the send (``Network.send(message,
    destination)``) and, in transit, to the link that carries the copy,
    so one message may leave on many links: a broadcast builds one
    object and every link it leaves on delivers that object.  Every
    field after ``source`` is keyword-only.  ``created_at`` is the
    instant of the message's sends (every copy of a broadcast leaves at
    the same instant; a retransmit restamps it).

    ``summary_entries`` counts piggy-backed summary coefficients (or filter
    fragments); their bytes are accounted to the *summary* category even when
    they ride on a TUPLE message, which is how Figure 8 separates overhead
    from net data.

    ``kind`` and ``summary_entries`` are fixed at construction: the wire
    size and the kind's accounting label are worked out once, there, and
    every send, traffic tally and sender pause reads them back.
    """

    kind: MessageKind
    source: int
    _: KW_ONLY
    payload: Any = None
    summary_entries: int = 0
    created_at: Optional[float] = None
    seq: Optional[int] = None
    """Reliable-channel sequence number (None for best-effort traffic);
    on ACK messages, the sequence number being acknowledged.  Rides in the
    fixed header, so it adds no modeled bytes."""
    kind_name: str = field(init=False, repr=False, compare=False)
    """``kind.value``, the label traffic accounting keys by."""
    wire_bytes: int = field(init=False, repr=False, compare=False)
    """Total on-the-wire size: header, body by kind, summary entries."""

    def __post_init__(self) -> None:
        # ``_value_`` is the plain attribute behind ``Enum.value``, whose
        # descriptor costs a Python call per read.
        self.kind_name = name = self.kind._value_
        self.wire_bytes = (
            HEADER_BYTES
            + _BODY_BYTES.get(name, 0)
            + self.summary_entries * SUMMARY_COEFFICIENT_BYTES
        )
