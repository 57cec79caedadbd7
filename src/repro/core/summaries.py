"""Summary dissemination bookkeeping (Figure 7, lines 1-5).

Every filtering policy maintains a compact summary of its local windows
(DFT coefficients, a counting Bloom filter, or an AGMS sketch) and must
keep the other N-1 nodes' copies reasonably fresh.  The machinery is the
same for all of them:

* a per-stream *manager* turns local window updates into
  :class:`SummaryUpdate` broadcasts at a refresh cadence;
* a :class:`SummaryOutbox` holds, per peer, the latest not-yet-delivered
  update for each (algorithm, stream) slot -- newer updates supersede
  queued ones, exactly like the prototype's "batch of updates";
* updates are piggy-backed on tuple messages when possible and flushed
  standalone otherwise (the node runtime decides; see
  :meth:`repro.core.node.JoinProcessingNode`);
* a :class:`RemoteSummaryTable` on the receiving side merges updates into
  the freshest known remote state (Figure 7's "lookup table").
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.dft.sliding import SlidingDFT, low_frequency_bins
from repro.errors import SummaryError
from repro.streams.tuples import StreamId


@dataclass
class SummaryUpdate:
    """One summary broadcast: the unit piggy-backed onto tuple messages."""

    algorithm: str
    stream: StreamId
    version: int
    window_size: int
    entries: int
    payload: Any
    full_state: bool
    """Whether the payload replaces remote state (snapshot) or merges
    into it (coefficient delta)."""


class SummaryOutbox:
    """Latest pending update per (peer, algorithm, stream) slot."""

    def __init__(self, peer_ids: Iterable[int]) -> None:
        self._pending: Dict[int, Dict[Tuple[str, StreamId], SummaryUpdate]] = {
            int(peer): {} for peer in peer_ids
        }
        self.refresh_stretch = 1
        """Refresh-cadence multiplier (>= 1) of the summaries queued here,
        set by the overload ladder while the owning node is degraded; 1 is
        the normal cadence."""
        self.history = None
        """Optional :class:`~repro.recovery.delta.SummaryHistory`: when
        the watermark-delta state transfer is on, the node attaches one
        per outbox so every outgoing snapshot version stays available as
        a delta base for recovering peers."""

    def broadcast(self, update: SummaryUpdate) -> None:
        """Queue ``update`` for every peer, superseding older queued ones."""
        if self.history is not None:
            self.history.record(update)
        slot = (update.algorithm, update.stream)
        for queue in self._pending.values():
            queue[slot] = update

    def queue_for(self, peer: int, update: SummaryUpdate) -> None:
        """Queue ``update`` for a single peer (retransmissions)."""
        if self.history is not None:
            self.history.record(update)
        self._pending[peer][(update.algorithm, update.stream)] = update

    def has_pending(self, peer: int) -> bool:
        return bool(self._pending[peer])

    def take(self, peer: int) -> List[SummaryUpdate]:
        """Pop and return everything queued for ``peer``."""
        updates = list(self._pending[peer].values())
        self._pending[peer].clear()
        return updates

    def peers_with_pending(self) -> List[int]:
        return [peer for peer, queue in self._pending.items() if queue]

    def clear(self) -> None:
        """Drop everything queued (checkpoint restore: pending updates are
        soft state -- the resync protocol refills peers explicitly).  The
        snapshot history goes too: the restored version counter rolled
        back, so kept views could collide with re-used version numbers."""
        for queue in self._pending.values():
            queue.clear()
        if self.history is not None:
            self.history.clear()


_snapshot_texts: Dict[int, Tuple["weakref.ref", str]] = {}
"""``id(array)`` -> (weak reference, canonical payload text): one
broadcast snapshot is the same array in every recipient's table, so its
checkpoint text is rendered once and shared.  An entry goes when its
array does, so an id never names two arrays here."""


def _payload_text(payload: Any) -> str:
    """The canonical JSON text of ``encode_payload(payload)``."""
    from repro.recovery.checkpoint import canonical_json
    from repro.recovery.delta import encode_payload

    key = id(payload)
    entry = _snapshot_texts.get(key)
    if entry is not None and entry[0]() is payload:
        return entry[1]
    text = canonical_json(encode_payload(payload))
    if isinstance(payload, np.ndarray):  # a coefficient map is one table's own
        _snapshot_texts[key] = (
            weakref.ref(payload, lambda _: _snapshot_texts.pop(key, None)),
            text,
        )
    return text


class RemoteSummaryTable:
    """Receiver-side freshest-known summaries, keyed by (peer, stream)."""

    _rendered: Optional[List[Optional[Tuple[Any, int, str, str]]]] = None
    """Per slot, in the order slots were first stored: the payload object
    and version :meth:`checkpoint_text` last rendered, the entry's head
    and the payload's text; made at the first checkpoint, so a table
    that is never checkpointed pays nothing for it."""

    _order: Tuple[int, ...] = ()
    """Indices into :attr:`_rendered` in ``(peer, stream value)`` order,
    recomputed when a slot is added."""

    def __init__(self) -> None:
        self._state: Dict[Tuple[int, StreamId], Any] = {}
        self._versions: Dict[Tuple[int, StreamId], int] = {}

    def apply(self, source: int, update: SummaryUpdate) -> bool:
        """Merge an incoming update; returns whether state changed.

        Snapshot updates replace state outright; delta updates (DFT
        coefficient maps) merge bin-by-bin.  Updates older than what is
        already known are dropped (piggy-backed and standalone copies of
        the same broadcast may race on different links).
        """
        key = (source, update.stream)
        if self._versions.get(key, -1) >= update.version:
            return False
        if update.full_state or key not in self._state:
            self._state[key] = update.payload
        else:
            current = self._state[key]
            if not isinstance(current, dict) or not isinstance(update.payload, dict):
                raise SummaryError("delta update over non-mergeable state")
            merged = dict(current)
            merged.update(update.payload)
            self._state[key] = merged
        self._versions[key] = update.version
        return True

    def get(self, source: int, stream: StreamId) -> Optional[Any]:
        return self._state.get((source, stream))

    def checkpoint_text(self) -> str:
        """Canonical JSON text of the freshest remote summaries: a list
        of ``[peer, stream, version, encoded payload]`` entries in
        ``(peer, stream)`` order.

        Unlike the policies' own ``checkpoint_state``, this is *not*
        restored through an inverse method here: the node replays the
        entries through ``policy.on_remote_summary`` so derived caches
        (remote Bloom filters, sketch copies, reconstructions) rebuild
        consistently.  The entries are the watermark the delta state
        transfer negotiates from.

        A slot's text is kept for as long as the slot holds the same
        payload object at the same version: ``apply`` stores a new
        object per change and nothing mutates a stored one, while a
        version alone can come round again after a restore.  Slots are
        read in the order they were first stored -- ``apply`` adds a key
        to both dicts in one call and only :meth:`clear` removes one --
        so no key is hashed here.
        """
        rendered = self._rendered
        if rendered is None:
            rendered = self._rendered = []
        state = self._state
        keys = list(state)
        if len(rendered) != len(keys):
            rendered.extend([None] * (len(keys) - len(rendered)))
            self._order = tuple(
                sorted(
                    range(len(keys)),
                    key=lambda index: (keys[index][0], keys[index][1]._value_),
                )
            )
        slots = enumerate(zip(state.values(), self._versions.values()))
        for index, (payload, version) in slots:
            slot = rendered[index]
            if slot is None or slot[0] is not payload or slot[1] != version:
                peer, stream = keys[index]
                head = '[%d,"%s",%d,' % (peer, stream._value_, version)
                rendered[index] = (payload, version, head, _payload_text(payload))
        return "[%s]" % ",".join(["%s%s]" % rendered[index][2:] for index in self._order])

    def clear(self) -> None:
        """Forget every remote summary (checkpoint restore: remote state
        is soft -- the anti-entropy resync and the normal broadcast
        cadence rebuild it from live peers)."""
        self._state.clear()
        self._versions.clear()
        self._rendered = None
        self._order = ()


class DftSummaryManager:
    """Local sliding DFT + coefficient-delta broadcasting for one stream.

    Figure 7, lines 1-2: incrementally update the coefficients, extract
    those that changed (by more than ``delta_tolerance``, relatively)
    since the last broadcast, and hand them to the outbox.
    """

    algorithm = "dft"

    def __init__(
        self,
        stream: StreamId,
        window_size: int,
        budget: int,
        refresh_interval: int,
        delta_tolerance: float,
        outbox: SummaryOutbox,
    ) -> None:
        if refresh_interval < 1:
            raise SummaryError("refresh_interval must be >= 1")
        if delta_tolerance < 0:
            raise SummaryError("delta_tolerance must be non-negative")
        self.stream = stream
        self.window_size = window_size
        self.refresh_interval = refresh_interval
        self.delta_tolerance = delta_tolerance
        self.outbox = outbox
        bins = low_frequency_bins(window_size, budget)
        self.dft = SlidingDFT(window_size, tracked_bins=bins)
        # Broadcast memory as arrays aligned with the tracked bins: the
        # delta-suppression scan then runs vectorized over the DFT's
        # zero-copy coefficient view instead of materializing a dict per
        # broadcast.
        self._last_broadcast_values = np.zeros(bins.size, dtype=np.complex128)
        self._ever_broadcast = np.zeros(bins.size, dtype=bool)
        self._updates_since_refresh = 0
        self._version = 0
        self.broadcasts = 0
        self.suppressed_refreshes = 0
        self.telemetry = None
        """Optional :class:`repro.telemetry.TelemetryHub` (wired by the
        owning policy's ``attach_telemetry``)."""
        self.telemetry_node = None
        self._last_full_recomputes = 0

    def _emit_refresh_telemetry(self, update: Optional[SummaryUpdate]) -> None:
        hub = self.telemetry
        recomputes = self.dft.full_recomputes
        if recomputes > self._last_full_recomputes:
            hub.emit(
                "summary.recompute",
                category="summary",
                node=self.telemetry_node,
                stream=self.stream.value,
                count=recomputes - self._last_full_recomputes,
            )
            self._last_full_recomputes = recomputes
        if update is None:
            hub.registry.counter(
                "repro_summary_suppressed_total",
                node=self.telemetry_node,
                stream=self.stream.value,
            ).inc()
            return
        hub.emit(
            "summary.broadcast",
            category="summary",
            node=self.telemetry_node,
            stream=self.stream.value,
            entries=update.entries,
            version=update.version,
        )

    def observe(self, key: int) -> None:
        """Feed one locally-arrived attribute value through the summary."""
        self.dft.update(float(key))
        self._updates_since_refresh += 1
        due = self.refresh_interval * self.outbox.refresh_stretch
        if self._updates_since_refresh >= due:
            self._updates_since_refresh = 0
            self.refresh()

    def refresh(self) -> Optional[SummaryUpdate]:
        """Broadcast the coefficients that changed materially, if any."""
        bins, current = self.dft.coefficient_view()
        previous = self._last_broadcast_values
        scale = np.maximum(
            np.maximum(np.abs(previous), np.abs(current)), 1.0
        )
        changed_mask = ~self._ever_broadcast | (
            np.abs(current - previous) > self.delta_tolerance * scale
        )
        if not changed_mask.any():
            self.suppressed_refreshes += 1
            if self.telemetry is not None:
                self._emit_refresh_telemetry(None)
            return None
        self._last_broadcast_values[changed_mask] = current[changed_mask]
        self._ever_broadcast[changed_mask] = True
        changed = {
            int(b): complex(c)
            for b, c in zip(bins[changed_mask], current[changed_mask])
        }
        self._version += 1
        update = SummaryUpdate(
            algorithm=self.algorithm,
            stream=self.stream,
            version=self._version,
            window_size=self.window_size,
            entries=len(changed),
            payload=changed,
            full_state=False,
        )
        self.outbox.broadcast(update)
        self.broadcasts += 1
        if self.telemetry is not None:
            self._emit_refresh_telemetry(update)
        return update

    def local_coefficients(self) -> Dict[int, complex]:
        """The node's own current coefficient map (for similarity calc)."""
        return self.dft.coefficient_map()

    def checkpoint_state(self) -> Dict[str, object]:
        """Snapshot the manager's durable state for repro.recovery."""
        from repro.recovery.checkpoint import encode_array

        return {
            "dft": self.dft.checkpoint_state(),
            "last_broadcast": encode_array(self._last_broadcast_values),
            "ever_broadcast": encode_array(self._ever_broadcast),
            "updates_since_refresh": self._updates_since_refresh,
            "version": self._version,
            "broadcasts": self.broadcasts,
            "suppressed_refreshes": self.suppressed_refreshes,
            "last_full_recomputes": self._last_full_recomputes,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        from repro.recovery.checkpoint import decode_array

        self.dft.restore_state(state["dft"])
        self._last_broadcast_values = decode_array(state["last_broadcast"])
        self._ever_broadcast = decode_array(state["ever_broadcast"])
        self._updates_since_refresh = int(state["updates_since_refresh"])
        self._version = int(state["version"])
        self.broadcasts = int(state["broadcasts"])
        self.suppressed_refreshes = int(state["suppressed_refreshes"])
        self._last_full_recomputes = int(state["last_full_recomputes"])

    def snapshot_update(self) -> Optional[SummaryUpdate]:
        """A full-state snapshot for one recovering peer.

        Deltas assume the receiver saw every earlier broadcast; a peer
        that was down (or partitioned away) did not, so recovery ships
        the complete coefficient map with ``full_state=True`` to replace
        whatever stale merge the peer holds.  ``None`` when the window is
        still empty (nothing to resynchronize)."""
        current = self.dft.coefficient_map()
        if not current:
            return None
        _, coefficients = self.dft.coefficient_view()
        self._last_broadcast_values[:] = coefficients
        self._ever_broadcast[:] = True
        self._version += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "summary.resync",
                category="summary",
                node=self.telemetry_node,
                stream=self.stream.value,
                entries=len(current),
                version=self._version,
            )
        return self.full_update(self._version, current)

    def full_update(self, version: int, payload: Dict[int, complex]) -> SummaryUpdate:
        """A full-state update carrying the coefficient map ``payload``."""
        return SummaryUpdate(
            algorithm=self.algorithm,
            stream=self.stream,
            version=version,
            window_size=self.window_size,
            entries=len(payload),
            payload=payload,
            full_state=True,
        )


class SnapshotSummaryManager:
    """Snapshot-style broadcasting shared by the Bloom and sketch baselines.

    Subclasses (or composition users) supply ``snapshot()`` and the wire
    size; this class handles the cadence and versioning.
    """

    def __init__(
        self,
        algorithm: str,
        stream: StreamId,
        window_size: int,
        entries: int,
        refresh_interval: int,
        outbox: SummaryOutbox,
        snapshot_fn,
    ) -> None:
        if refresh_interval < 1:
            raise SummaryError("refresh_interval must be >= 1")
        self.algorithm = algorithm
        self.stream = stream
        self.window_size = window_size
        self.entries = entries
        self.refresh_interval = refresh_interval
        self.outbox = outbox
        self._snapshot_fn = snapshot_fn
        self._updates_since_refresh = 0
        self._version = 0
        self.broadcasts = 0
        self.telemetry = None
        self.telemetry_node = None

    def tick(self) -> Optional[SummaryUpdate]:
        """Count one local update; broadcast a snapshot at the cadence."""
        self._updates_since_refresh += 1
        due = self.refresh_interval * self.outbox.refresh_stretch
        if self._updates_since_refresh < due:
            return None
        self._updates_since_refresh = 0
        return self.refresh()

    def refresh(self) -> SummaryUpdate:
        update = self.snapshot_update()
        self.outbox.broadcast(update)
        self.broadcasts += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "summary.broadcast",
                category="summary",
                node=self.telemetry_node,
                stream=self.stream.value,
                entries=update.entries,
                version=update.version,
            )
        return update

    def checkpoint_state(self) -> Dict[str, object]:
        """Snapshot the cadence/version counters for repro.recovery.

        The summarized structure itself (filter / sketch) is owned by the
        policy and checkpointed there; this covers only the broadcast
        bookkeeping."""
        return {
            "updates_since_refresh": self._updates_since_refresh,
            "version": self._version,
            "broadcasts": self.broadcasts,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self._updates_since_refresh = int(state["updates_since_refresh"])
        self._version = int(state["version"])
        self.broadcasts = int(state["broadcasts"])

    def snapshot_update(self) -> SummaryUpdate:
        """Build (but do not queue) a fresh full-state snapshot.

        ``refresh`` broadcasts it to everyone; peer recovery instead
        queues it for the one peer that needs resynchronizing."""
        self._version += 1
        return self.full_update(self._version, self._snapshot_fn())

    def full_update(self, version: int, payload: Any) -> SummaryUpdate:
        """A full-state update carrying the snapshot ``payload``."""
        return SummaryUpdate(
            algorithm=self.algorithm,
            stream=self.stream,
            version=version,
            window_size=self.window_size,
            entries=self.entries,
            payload=payload,
            full_state=True,
        )
