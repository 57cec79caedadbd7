"""Checkpoint/restart recovery: crashed nodes rejoin instead of dying.

The pieces:

* :mod:`repro.recovery.settings` -- the knobs
  (:class:`RecoverySettings`), off by default;
* :mod:`repro.recovery.checkpoint` -- the deterministic, byte-stable
  blob codec and the simulated durable store;
* :mod:`repro.recovery.machine` -- the explicit
  DOWN -> RESTORING -> CATCHING_UP -> LIVE rejoin state machine;
* :mod:`repro.recovery.delta` -- the watermark-delta state-transfer
  codec (ship only what changed since the restored checkpoint);
* :mod:`repro.recovery.coordinator` -- the per-node coordinator that
  composes them (imported from there: it depends on the runtime, which
  depends on this package).

See ``docs/recovery.md`` for the protocol walkthrough.
"""

from repro.recovery.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointStore,
    decode_array,
    decode_blob,
    decode_tuple,
    encode_array,
    restore_window,
    tuple_text,
    window_state,
)
from repro.recovery.delta import (
    DELTA_FORMAT_VERSION,
    SummaryHistory,
    apply_delta,
    decode_payload,
    delta_wire_entries,
    encode_delta,
    encode_payload,
    payload_digest,
)
from repro.recovery.machine import TRIGGERS, RecoveryMachine, RecoveryPhase
from repro.recovery.settings import RecoverySettings

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "DELTA_FORMAT_VERSION",
    "RecoveryMachine",
    "RecoveryPhase",
    "RecoverySettings",
    "SummaryHistory",
    "TRIGGERS",
    "apply_delta",
    "decode_array",
    "decode_blob",
    "decode_payload",
    "decode_tuple",
    "delta_wire_entries",
    "encode_array",
    "encode_delta",
    "encode_payload",
    "payload_digest",
    "restore_window",
    "tuple_text",
    "window_state",
]
