"""The pre-PR-24 checkpoint producers and encoder, kept as the tests' oracle.

Until PR 24 every checkpoint tick re-encoded a node's whole state: every
window and shadow-window tuple through ``encode_tuple``, every remote
summary slot through ``encode_payload``, and the resulting tree through
a fresh ``json.dumps``.  Since then ``window_state`` and
``RemoteSummaryTable.checkpoint_state`` return canonical JSON text
(:class:`repro.recovery.checkpoint.Rendered`) and remember it between
ticks, and ``encode_blob`` splices that text in.  The three functions
below are the old bodies moved here verbatim, so the blobs assembled from
remembered text can be held to them byte for byte with ``==``.

``patch_in`` puts them back where a system takes them from, the way
``tests/integration/test_fastpath_determinism.py`` patches kernels.
"""

import json
from typing import Dict, List

from repro.recovery.checkpoint import encode_tuple


def reference_window_state(window) -> Dict[str, object]:
    """``repro.recovery.checkpoint.window_state`` as of PR 23."""
    state: Dict[str, object] = {
        "tuples": [encode_tuple(item) for item in window],
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


def patch_in(monkeypatch) -> None:
    """Make every checkpoint of a run the old way, end to end."""
    monkeypatch.setattr(
        "repro.recovery.coordinator.window_state", reference_window_state
    )
    monkeypatch.setattr(
        "repro.recovery.coordinator.encode_blob", reference_encode_blob
    )
    monkeypatch.setattr(
        "repro.core.summaries.RemoteSummaryTable.checkpoint_state",
        reference_remote_state,
    )
