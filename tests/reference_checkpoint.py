"""The re-encode-everything checkpoint writer, kept as the tests' oracle.

Until PR 24 every checkpoint tick re-encoded a node's whole state: every
window and shadow-window tuple through ``encode_tuple``, every remote
summary slot through ``encode_payload``, and the resulting tree through
a fresh ``json.dumps``.  Since then the window and remote-table producers
keep canonical JSON text between ticks, and
``RecoveryCoordinator._checkpoint_blob`` writes the blob's fixed layout
around it.  The functions below are the old bodies, so the blobs written
from kept text can be held to them byte for byte with ``==``.

``patch_in`` swaps the whole writer -- layout, windows, remote table and
encoder -- the way ``tests/integration/test_fastpath_determinism.py``
patches kernels, so no part of the kept-text path runs under it.
"""

import json
from typing import Dict, List

from repro.recovery.checkpoint import CHECKPOINT_VERSION
from repro.streams.tuples import StreamId, StreamTuple


def reference_encode_tuple(item: StreamTuple) -> List[object]:
    """``repro.recovery.checkpoint.encode_tuple`` before the plain-tuple
    formatter (the positional encoding ``tuple_text`` writes as text)."""
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


def reference_window_state(window) -> Dict[str, object]:
    """``repro.recovery.checkpoint.window_state`` as of PR 23."""
    state: Dict[str, object] = {
        "tuples": [reference_encode_tuple(item) for item in window],
        "total_appended": window.total_appended,
    }
    resets = getattr(window, "resets", None)
    if resets is not None:
        state["resets"] = resets
    return state


def reference_remote_state(self) -> List[List[object]]:
    """``RemoteSummaryTable.checkpoint_state`` as of PR 23."""
    from repro.recovery.delta import encode_payload

    return [
        [peer, stream.value, self._versions[(peer, stream)],
         encode_payload(self._state[(peer, stream)])]
        for peer, stream in sorted(
            self._state, key=lambda key: (key[0], key[1].value)
        )
    ]


def reference_encode_blob(state: Dict[str, object]) -> bytes:
    """``repro.recovery.checkpoint.encode_blob`` as of PR 23."""
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode("ascii")


def reference_checkpoint_state(coordinator, now: float) -> Dict[str, object]:
    """``RecoveryCoordinator._checkpoint_state`` before kept text: the
    node's state as one tree of plain values."""
    node = coordinator.node
    policy = node.policy
    remote = getattr(policy, "remote", None)
    state = {
        "policy": policy.checkpoint_state(),
        "windows": {
            stream.value: reference_window_state(node.join.window(stream))
            for stream in (StreamId.R, StreamId.S)
        },
        "shadows": {
            stream.value: {
                str(origin): reference_window_state(window)
                for origin, window in sorted(node.shadow_windows[stream].items())
            }
            for stream in (StreamId.R, StreamId.S)
        },
        "join": {
            "local_results": node.join.local_results,
            "probe_results": node.join.probe_results,
        },
        "remote": [] if remote is None else reference_remote_state(remote),
    }
    return {
        "version": CHECKPOINT_VERSION,
        "node": node.node_id,
        "taken_at": now,
        "interarrival": {
            "mean": node._mean_interarrival,
            "last": node._last_arrival_time,
        },
        "queries": {"0": state},
    }


def reference_checkpoint_blob(coordinator, now: float) -> bytes:
    """One tick's blob, every byte re-encoded from live state."""
    return reference_encode_blob(reference_checkpoint_state(coordinator, now))


def patch_in(monkeypatch) -> None:
    """Make every checkpoint of a run the old way, end to end."""
    monkeypatch.setattr(
        "repro.recovery.coordinator.RecoveryCoordinator._checkpoint_blob",
        reference_checkpoint_blob,
    )
