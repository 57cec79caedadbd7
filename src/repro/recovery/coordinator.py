"""The crash/rejoin coordinator: what a node does only because it can restart.

A :class:`~repro.core.node.JoinProcessingNode` builds one when recovery
is enabled.  It owns the replay log and the parking of work while the
process cannot serve, the checkpoint layout, the restart / restore /
catch-up timers, the state-transfer protocol (watermark claims, deltas
against the outbox's :class:`~repro.recovery.delta.SummaryHistory`, full
snapshots where a claim cannot be honoured), the
:class:`~repro.recovery.machine.RecoveryMachine` and the recovery
counters.  The node keeps its queue, windows and policies; the
coordinator reaches them through the node.  ``docs/recovery.md`` walks
the protocol.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import config as testbed
from repro.core.summaries import SummaryUpdate
from repro.net.message import (
    HEADER_BYTES,
    SUMMARY_COEFFICIENT_BYTES,
    Message,
    MessageKind,
)
from repro.net.simulator import Event
from repro.recovery.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    canonical_json,
    restore_window,
    window_state,
)
from repro.recovery.delta import (
    SummaryHistory,
    apply_delta,
    decode_payload,
    delta_wire_entries,
    encode_delta,
    payload_digest,
)
from repro.recovery.machine import RecoveryMachine, RecoveryPhase
from repro.streams.tuples import StreamId, StreamTuple

RESTORE_DELAY_S = 0.05
"""Reading the latest checkpoint back after the outage ends."""

CATCHUP_TIMEOUT_S = 2.0
"""Longest wait in CATCHING_UP for peer state transfers; on expiry the
node goes LIVE *degraded* (remote summaries refill the slow way)."""

TRANSFER_TIMEOUT_S = 0.4
"""First deadline for a peer's response before the request is retried."""

TRANSFER_BACKOFF = 2.0
"""Deadline multiplier per consecutive retry."""

MAX_TRANSFER_RETRIES = 3
"""Request retries per peer before giving up on it."""

REPLAY_LOG_CAPACITY = 65_536
"""Arrivals logged during an outage.  With the log full the *incoming*
arrival is dropped (counted in ``replay_dropped``); the logged ones are
kept and replayed in order."""

DELTA_HISTORY_LIMIT = 64
"""Past snapshot versions a serving node keeps per summary slot; a claim
older than the ring gets the full-snapshot fallback."""

Slot = Tuple[str, str]
"""One summary slot of a resync: ``(algorithm, stream value)``."""


def _object_text(entries: Iterable[Tuple[str, str]]) -> str:
    """The JSON object of ``(key, value text)`` entries, keys sorted as
    strings (``"10"`` before ``"2"``); the keys need no escaping."""
    return "{%s}" % ",".join('"%s":%s' % entry for entry in sorted(entries))


class RecoveryCoordinator:
    """One node's side of the crash/rejoin protocol."""

    def __init__(self, node, checkpoint_store: Optional[CheckpointStore]) -> None:
        self.node = node
        self.checkpoint_store = checkpoint_store
        self.machine = RecoveryMachine(node.node_id)
        self._replay_log: Deque[StreamTuple] = deque()
        self._pending_messages: List[Message] = []
        self._transfer_timers: Dict[int, Event] = {}
        self._transfer_attempts: Dict[int, int] = {}
        self._synced_peers: set = set()
        self._restore_event: Optional[Event] = None
        self._catchup_deadline: Optional[Event] = None
        self.claims: Dict[int, Dict[Slot, Tuple[int, str]]] = {}
        """Per peer, per slot: the ``(version, digest)`` the latest
        restore recovered -- what the state-transfer request claims as
        its resync base.  An unclaimed slot is answered in full."""
        self._bases: Dict[int, Dict[Slot, object]] = {}
        """The restored payloads behind the claims.  Deltas apply against
        these (not the live remote table) so a retransmitted response
        still applies cleanly after an earlier one already landed."""
        self._watermark: Optional[float] = None
        self.restarts = 0
        self.checkpoints_taken = 0
        self.checkpoint_bytes = 0
        self.tuples_logged = 0
        self.tuples_replayed = 0
        self.replay_dropped = 0
        self.state_transfer_bytes = 0
        self.state_transfer_delta_bytes = 0
        self.state_transfer_full_bytes = 0
        self.state_transfer_bytes_saved = 0
        self.state_transfer_fallbacks = 0

    def install_history(self, policy) -> None:
        """Attach a snapshot-history ring to the policy's outbox: any peer
        may crash and claim a watermark against this node's broadcasts."""
        if policy.outbox.history is None:
            policy.outbox.history = SummaryHistory(DELTA_HISTORY_LIMIT)

    def park_arrival(self, item: StreamTuple) -> bool:
        """Take a local arrival into the replay log while DOWN or
        RESTORING; returns whether it was taken.

        The site's ingest path keeps a durable arrival log (the paper's
        sources are external feeds, so the tuples exist whether the
        process does or not).  Non-restartable crashes never enter those
        phases, so they keep the legacy drop semantics.
        """
        if self.machine.phase not in (RecoveryPhase.DOWN, RecoveryPhase.RESTORING):
            return False
        if len(self._replay_log) >= REPLAY_LOG_CAPACITY:
            self.replay_dropped += 1
        else:
            self._replay_log.append(item)
            self.tuples_logged += 1
        return True

    def park_delivery(self, message: Message) -> bool:
        """Hold a delivery while the state is mid-restore (it goes through
        the node's demux once restored); returns whether it was held."""
        if self.machine.phase is not RecoveryPhase.RESTORING:
            return False
        self._pending_messages.append(message)
        return True

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def take_checkpoint(self) -> None:
        """Snapshot the node's durable state into the store.

        A crashed or still-recovering node skips the tick -- there is no
        process to run it.
        """
        node = self.node
        if self.checkpoint_store is None:
            return
        if node.fault_injector is not None and node.fault_injector.node_down(
            node.node_id
        ):
            return
        if not self.machine.is_serving:
            return
        now = node.scheduler.now
        blob = self._checkpoint_blob(now)
        self.checkpoint_store.save(node.node_id, now, blob)
        self.checkpoints_taken += 1
        self.checkpoint_bytes += len(blob)
        if node.telemetry is not None:
            node.telemetry.emit(
                "recovery.checkpoint",
                category="recovery",
                node=node.node_id,
                time=now,
                size_bytes=len(blob),
            )

    def _checkpoint_blob(self, now: float) -> bytes:
        """The node's checkpoint: the canonical JSON of the version-2
        layout, written section by section in sorted-key order.

        The windows and the remote table come as the text their
        producers keep between ticks (:func:`window_state`,
        ``policy.remote_text``); the policy and the scalars go through
        :data:`canonical_json`.  Shadow windows are keyed by origin as a
        string.  ``tests/reference_checkpoint.py`` holds the
        re-encode-everything writer every blob equals byte for byte.
        """
        node = self.node
        join = node.join
        streams = (StreamId.R, StreamId.S)
        windows = _object_text(
            (stream._value_, window_state(join.window(stream))) for stream in streams
        )
        shadows = _object_text(
            (
                stream._value_,
                _object_text(
                    (str(origin), window_state(window))
                    for origin, window in node.shadow_windows[stream].items()
                ),
            )
            for stream in streams
        )
        # The freshest remote summaries known now: restore replays them
        # through the policy, and the state transfer claims them as its
        # resync base (the blob's taken_at is the watermark).  The
        # one-entry "queries" wrapper of the multi-query layout stays in
        # the bytes (and recovery.checkpoint_bytes in every digest) until
        # the checkpoint codec re-pin drops it with CHECKPOINT_VERSION 3.
        text = (
            '{"interarrival":%s,"node":%d,"queries":{"0":{"join":%s,'
            '"policy":%s,"remote":%s,"shadows":%s,"windows":%s}},'
            '"taken_at":%s,"version":%d}'
            % (
                canonical_json(
                    {"last": node._last_arrival_time, "mean": node._mean_interarrival}
                ),
                node.node_id,
                canonical_json(
                    {
                        "local_results": join.local_results,
                        "probe_results": join.probe_results,
                    }
                ),
                canonical_json(node.policy.checkpoint_state()),
                node.policy.remote_text(),
                shadows,
                windows,
                canonical_json(now),
                CHECKPOINT_VERSION,
            )
        )
        return text.encode("ascii")

    def _restore_state(self, state: Dict[str, object]) -> None:
        node = self.node
        interarrival = state["interarrival"]
        node._mean_interarrival = float(interarrival["mean"])
        last = interarrival["last"]
        node._last_arrival_time = None if last is None else float(last)
        node._last_contact = {}
        self.claims = {}
        self._bases = {}
        self._watermark = float(state["taken_at"])
        saved = state["queries"]["0"]
        node.policy.restore_state(saved["policy"])
        for stream in (StreamId.R, StreamId.S):
            restore_window(node.join.window(stream), saved["windows"][stream.value])
            # Refilled in place: the node holds these two dicts directly.
            shadows = node.shadow_windows[stream]
            shadows.clear()
            for origin_key, shadow_state in saved["shadows"][stream.value].items():
                window = node._make_window()
                restore_window(window, shadow_state)
                shadows[int(origin_key)] = window
        node.join.local_results = int(saved["join"]["local_results"])
        node.join.probe_results = int(saved["join"]["probe_results"])
        self._restore_remote_summaries(saved.get("remote", []))

    def _restore_remote_summaries(self, entries: List[List[object]]) -> None:
        """Replay checkpointed remote summaries through the policy.

        The policy applies them as live full-state broadcasts, so every
        derived cache rebuilds; the replayed snapshot slots double as the
        bases the state transfer claims toward each peer."""
        decoded = [
            (int(peer), StreamId(stream), int(version), decode_payload(encoded))
            for peer, stream, version, encoded in entries
        ]
        for peer, update in self.node.policy.replay_remote(decoded):
            if isinstance(update.payload, np.ndarray):
                slot = (update.algorithm, update.stream.value)
                self.claims.setdefault(peer, {})[slot] = (
                    update.version,
                    payload_digest(update.payload),
                )
                self._bases.setdefault(peer, {})[slot] = update.payload

    # ------------------------------------------------------------------
    # crash, restart, restore, catch-up
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """The restartable crash started: the process and its soft state die."""
        if not self.machine.can_apply("crash"):
            return
        node = self.node
        now = node.scheduler.now
        self.machine.apply("crash", now)
        # Everything in flight inside the process is lost, and so are the
        # peak depth and congestion throttle it measured: a restarted
        # node's reflect only what the new incarnation observes.  Timers
        # from an earlier recovery incarnation must not fire into this one.
        node.service.drop_queue()
        node.policy.reset_congestion()
        self._pending_messages.clear()
        self._replay_log.clear()
        self.claims = {}
        self._bases = {}
        self._watermark = None
        self._cancel_timers()
        if node.telemetry is not None:
            node.telemetry.emit(
                "recovery.crash", category="recovery", node=node.node_id, time=now
            )

    def on_restart(self) -> None:
        """The downtime elapsed: boot, then restore after ``RESTORE_DELAY_S``."""
        if not self.machine.can_apply("restart"):
            return
        node = self.node
        now = node.scheduler.now
        self.machine.apply("restart", now)
        self.restarts += 1
        if node.transport is not None:
            # ARQ sequence numbers died with the process; peers reset
            # their side on receiving our state-transfer request.
            node.transport.reset()
        if node.health is not None:
            node.health.note_restart(now)
        if node.telemetry is not None:
            node.telemetry.emit(
                "recovery.restart", category="recovery", node=node.node_id, time=now
            )
        self._restore_event = node.scheduler.schedule_in(
            RESTORE_DELAY_S,
            self._complete_restore,
            key=node._event_keys.next_key(),
        )

    def _complete_restore(self) -> None:
        node = self.node
        self._restore_event = None
        now = node.scheduler.now
        checkpoint = None
        if self.checkpoint_store is not None:
            checkpoint = self.checkpoint_store.latest(node.node_id)
        if checkpoint is not None:
            self._restore_state(checkpoint.state())
        replay = list(self._replay_log)
        self._replay_log.clear()
        self.machine.apply("restored", now)
        if node.telemetry is not None:
            node.telemetry.emit(
                "recovery.restored",
                category="recovery",
                node=node.node_id,
                time=now,
                checkpoint_age_s=(
                    now - checkpoint.taken_at if checkpoint is not None else -1.0
                ),
                replayed_tuples=len(replay),
            )
        # Replay the outage's logged arrivals through the normal local
        # path (windows, summaries, oracle, forwarding), then the
        # deliveries that piled up while mid-restore.
        self.tuples_replayed += len(replay)
        for item in replay:
            node.service.enqueue(item)
        pending = list(self._pending_messages)
        self._pending_messages.clear()
        for message in pending:
            node.on_message(message)
        self._begin_catchup()

    def _begin_catchup(self) -> None:
        node = self.node
        self._synced_peers = set()
        self._transfer_attempts = {}
        if not node._peer_ids:
            self._complete_catchup(degraded=False)
            return
        for peer in node._peer_ids:
            self._send_transfer_request(peer)
        self._catchup_deadline = node.scheduler.schedule_in(
            CATCHUP_TIMEOUT_S,
            self._on_catchup_deadline,
            key=node._event_keys.next_key(),
        )

    def _send_transfer_request(self, peer: int) -> None:
        node = self.node
        attempts = self._transfer_attempts.get(peer, 0)
        self._transfer_attempts[peer] = attempts + 1
        # The watermark and per-slot claims ride the fixed request header
        # (like Message.seq): the request stays header-sized on the wire.
        slots = dict(self.claims.get(peer, {}))
        request = Message(
            kind=MessageKind.STATE_TRANSFER,
            source=node.node_id,
            payload=("request", {"watermark": self._watermark, "slots": slots}),
        )
        # Deliberately best-effort: the peer's ARQ receive channel for us
        # still expects the pre-crash sequence numbers until it resets on
        # receipt, so a sequenced request would be suppressed as a
        # duplicate.  Loss is covered by the bounded backoff retries.
        node.network.send(request, peer)
        self.state_transfer_bytes += request.wire_bytes
        if attempts < MAX_TRANSFER_RETRIES:
            delay = TRANSFER_TIMEOUT_S * (TRANSFER_BACKOFF ** attempts)
            self._transfer_timers[peer] = node.scheduler.schedule_in(
                delay,
                lambda p=peer: self._on_transfer_timeout(p),
                key=node._event_keys.next_key(),
            )

    def _awaiting(self, peer: int) -> bool:
        return (
            self.machine.phase is RecoveryPhase.CATCHING_UP
            and peer not in self._synced_peers
        )

    def _on_transfer_timeout(self, peer: int) -> None:
        self._transfer_timers.pop(peer, None)
        if self._awaiting(peer):
            self._send_transfer_request(peer)

    def _mark_peer_synced(self, peer: int) -> None:
        if not self._awaiting(peer):
            return
        self._synced_peers.add(peer)
        timer = self._transfer_timers.pop(peer, None)
        if timer is not None:
            timer.cancel()
        if len(self._synced_peers) >= len(self.node._peer_ids):
            self._complete_catchup(degraded=False)

    def _on_catchup_deadline(self) -> None:
        self._catchup_deadline = None
        if self.machine.phase is RecoveryPhase.CATCHING_UP:
            self._complete_catchup(degraded=True)

    def _complete_catchup(self, degraded: bool) -> None:
        node = self.node
        now = node.scheduler.now
        self._cancel_timers(keep_restore=True)
        self.machine.apply("timeout" if degraded else "synced", now)
        if node.telemetry is not None:
            node.telemetry.emit(
                "recovery.live",
                category="recovery",
                node=node.node_id,
                time=now,
                degraded=degraded,
                rejoin_latency_s=self.machine.rejoin_latencies[-1],
                peers_synced=len(self._synced_peers),
            )

    def _cancel_timers(self, keep_restore: bool = False) -> None:
        if not keep_restore and self._restore_event is not None:
            self._restore_event.cancel()
            self._restore_event = None
        for timer in self._transfer_timers.values():
            timer.cancel()
        self._transfer_timers.clear()
        self._transfer_attempts = {}
        if self._catchup_deadline is not None:
            self._catchup_deadline.cancel()
            self._catchup_deadline = None

    # ------------------------------------------------------------------
    # state transfer: serve and absorb
    # ------------------------------------------------------------------

    def on_state_transfer(self, message: Message) -> float:
        """Serve a peer's resync request or absorb its response; returns
        the service time."""
        node = self.node
        now = node.scheduler.now
        if message.payload[0] == "request":
            return self._serve(message, now)
        self.state_transfer_bytes += message.wire_bytes
        _, _, slots = message.payload
        for slot in slots:
            self._absorb(message.source, slot)
        if slots and node.health is not None:
            node.health.summary_received(message.source, now)
        self._mark_peer_synced(message.source)
        return testbed.CPU_SECONDS_PER_PROBE

    def _serve(self, message: Message, now: float) -> float:
        """Answer a rejoining peer's resync request.

        The requester restarted from scratch: reset our ARQ channels
        toward it (its sequence numbers are back at zero) and resync our
        summaries -- as watermark deltas where its claims check out, as
        full snapshots otherwise.
        """
        node = self.node
        peer = message.source
        if node.transport is not None:
            node.transport.reset_peer(peer)
        node.resync_peer(peer)
        outbox = node.policy.outbox
        updates = outbox.take(peer) if outbox.has_pending(peer) else ()
        full_entries = sum(update.entries for update in updates)
        full_size = HEADER_BYTES + full_entries * SUMMARY_COEFFICIENT_BYTES
        response = self._build_response(
            peer, message.payload[1], updates, full_size, now
        )
        if node.transport is not None:
            node.transport.send(response, peer)
        else:
            node.network.send(response, peer)
        self.state_transfer_bytes += response.wire_bytes
        node._last_contact[peer] = now
        # The sender pause is charged at the full-snapshot size: assembling
        # a delta still walks the complete summary state, and a delta
        # response keeps the event schedule a full one would have -- the
        # savings show up on the wire counters, not the clock.
        pause = full_size * 8.0 / testbed.SENDER_PACED_BPS
        return testbed.CPU_SECONDS_PER_PROBE + pause

    def _build_response(
        self,
        peer: int,
        detail: Dict[str, object],
        updates: Sequence[SummaryUpdate],
        full_size: int,
        now: float,
    ) -> Message:
        """Encode one resync response against the requester's claims.

        Each snapshot slot the requester claimed (version + digest) is
        looked up in the outbox's :class:`SummaryHistory`; if the claimed
        base is still there and verifies, only the changed entries ship.
        Any claim the history cannot honor downgrades the *whole*
        response to full snapshots (one counted fallback), so a response
        is never a mix of trusted and untrusted bases."""
        node = self.node
        claims = detail.get("slots") or {}
        prepared: List[Tuple[tuple, int]] = []
        fallback = False
        history = node.policy.outbox.history
        for update in updates:
            claim = claims.get((update.algorithm, update.stream.value))
            chosen = (("full", update), update.entries)
            if claim is not None and isinstance(update.payload, np.ndarray):
                version, digest = claim
                base = (
                    history.view(update.algorithm, update.stream, int(version))
                    if history is not None
                    else None
                )
                if base is None or payload_digest(base) != digest:
                    # The snapshot ring no longer covers the claimed
                    # version (or the digest disagrees -- version
                    # counters roll back across our own restores, so
                    # versions alone are never trusted).
                    fallback = True
                else:
                    blob = encode_delta(base, update.payload)
                    wire = (
                        update.entries
                        if blob is None
                        else delta_wire_entries(blob, update.entries)
                    )
                    if wire < update.entries:
                        slot = ("delta", update.algorithm, update.stream.value,
                                update.version, update.window_size,
                                update.entries, blob)
                        chosen = (slot, wire)
            prepared.append(chosen)
        if fallback:
            prepared = [(("full", update), update.entries) for update in updates]
        slots = [slot for slot, _ in prepared]
        any_delta = any(slot[0] == "delta" for slot in slots)
        response = Message(
            kind=MessageKind.STATE_TRANSFER,
            source=node.node_id,
            payload=("delta_response", fallback, slots),
            summary_entries=sum(wire for _, wire in prepared),
        )
        size = response.wire_bytes
        if any_delta:
            self.state_transfer_delta_bytes += size
            self.state_transfer_bytes_saved += full_size - size
        else:
            self.state_transfer_full_bytes += size
        if fallback:
            self.state_transfer_fallbacks += 1
        telemetry = node.telemetry
        if telemetry is not None:
            telemetry.emit(
                "recovery.state_transfer",
                category="recovery",
                node=node.node_id,
                time=now,
                peer=peer,
                kind="delta" if any_delta else "full",
                size_bytes=size,
                saved_bytes=max(0, full_size - size),
                watermark=detail.get("watermark"),
            )
            if fallback:
                telemetry.emit(
                    "recovery.transfer_fallback",
                    category="recovery",
                    node=node.node_id,
                    time=now,
                    peer=peer,
                    watermark=detail.get("watermark"),
                )
        return response

    def _absorb(self, source: int, slot: tuple) -> None:
        """Apply one slot of a resync response."""
        if slot[0] == "full":
            _, update = slot
        else:
            _, algorithm, stream, version, window, entries, blob = slot
            # Deltas apply against the *restored* base we claimed, not the
            # live remote table: a retransmitted response then still
            # applies cleanly after an earlier copy advanced the table.
            base = self._bases.get(source, {}).get((algorithm, stream))
            update = SummaryUpdate(
                algorithm=algorithm,
                stream=StreamId(stream),
                version=int(version),
                window_size=window,
                entries=entries,
                payload=apply_delta(base, blob),
                full_state=True,
            )
        self.node.policy.on_remote_summary(source, update)

    def counters(self) -> Dict[str, float]:
        """The node's recovery diagnostics, in their reporting order."""
        counters = {
            "restarts": float(self.restarts),
            "checkpoints_taken": float(self.checkpoints_taken),
            "checkpoint_bytes": float(self.checkpoint_bytes),
            "tuples_logged": float(self.tuples_logged),
            "tuples_replayed": float(self.tuples_replayed),
            "replay_dropped": float(self.replay_dropped),
            "state_transfer_bytes": float(self.state_transfer_bytes),
            "state_transfer_delta_bytes": float(self.state_transfer_delta_bytes),
            "state_transfer_full_bytes": float(self.state_transfer_full_bytes),
            "state_transfer_bytes_saved": float(self.state_transfer_bytes_saved),
            "state_transfer_fallbacks": float(self.state_transfer_fallbacks),
        }
        for key, value in self.machine.counters().items():
            counters["recovery_" + key] = value
        return counters

    def rejoin_record(self) -> Dict[str, list]:
        """Per completed rejoin its latency, and every trigger applied."""
        return {
            "latencies": list(self.machine.rejoin_latencies),
            "triggers": [trigger for _, trigger, _ in self.machine.history],
        }
