"""The DFT policy (Section 5.2): flow filtering from spectral similarity.

Per stream, the node runs an incremental DFT over its window's joining
attributes and broadcasts coefficient deltas.  For a tuple of stream R
arriving at node i, the relevant similarity is between node i's *R* signal
and each peer j's *S* signal (that is where the tuple would join), and
symmetrically for S tuples.  Similarities feed the
:class:`~repro.core.flow.FlowController`, which water-fills the
T_i in [1, log N] budget into per-peer probabilities; the tuple is then
forwarded with an independent coin per peer (Figure 2).

When the controller detects the uniform worst case (negligible variance
across peers), the policy falls back to budgeted round-robin, as
Section 5.2.2 prescribes.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.correlation import (
    DISTRIBUTION_BINS,
    SimilarityMeasure,
    histogram_cosines,
    histogram_edges,
    similarity,
    window_histogram,
)
from repro.core.flow import FlowController
from repro.core.policies.base import ForwardingPolicy, PolicyContext
from repro.core.policies.round_robin import RoundRobinPolicy
from repro.core.summaries import (
    DftSummaryManager,
    RemoteSummaryTable,
    SummaryUpdate,
)
from repro.streams.tuples import StreamId, StreamTuple

DELTA_TOLERANCE = 0.05
"""Relative change below which a DFT coefficient is not re-sent."""

UNKNOWN_PEER_SIMILARITY = 0.5
"""Prior similarity for peers whose summary has not arrived yet: neither
trusted nor written off, so early tuples still explore the mesh."""


class SlotRows:
    """One derived row per remote (peer, stream) slot, kept until the slot
    changes.

    A summary is a synopsis the receiver keeps until the sender replaces
    it, so whatever a policy derives from a slot's coefficient map is
    derived once per change of that map: :meth:`mark` records a change,
    :meth:`read` re-derives only the marked rows of one stream.  The rows
    of a stream sit in one (peers x width) array, peers in ``peer_ids``
    order, so a reader compares against every peer at once.  Nothing is
    allocated before the first read.
    """

    def __init__(self, peer_ids: Sequence[int], width: int) -> None:
        self._positions = {peer: row for row, peer in enumerate(peer_ids)}
        self._width = width
        self._tables: Dict[StreamId, Tuple[np.ndarray, np.ndarray]] = {}
        self._changed: Dict[StreamId, Set[int]] = {}

    def mark(self, peer: int, stream: StreamId) -> None:
        """``peer``'s ``stream`` slot changed; its row is stale."""
        if peer in self._positions:
            self._changed.setdefault(stream, set()).add(peer)

    def clear(self) -> None:
        """Forget every row (the remote table was cleared)."""
        self._tables.clear()
        self._changed.clear()

    def read(
        self, stream: StreamId, derive: Callable[[int], np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Up-to-date ``(rows, present)`` of every peer's ``stream`` slot.

        ``derive(peer)`` computes the row of a slot marked since the last
        read.  ``present[row]`` is whether that peer has a summary at all;
        rows of absent peers are zero.  Both arrays are overwritten by
        later reads.
        """
        table = self._tables.get(stream)
        if table is None:
            peers = len(self._positions)
            table = self._tables[stream] = (
                np.zeros((peers, self._width)),
                np.zeros(peers, dtype=bool),
            )
        rows, present = table
        for peer in self._changed.pop(stream, ()):
            row = self._positions[peer]
            rows[row] = derive(peer)
            present[row] = True
        return table


class DftPolicy(ForwardingPolicy):
    """Correlation-filtered forwarding from exchanged DFT coefficients."""

    name = "DFT"

    def __init__(self, context: PolicyContext) -> None:
        super().__init__(context)
        config = context.config
        budget = config.summary_budget(context.window_size)
        self.managers: Dict[StreamId, DftSummaryManager] = {
            stream: DftSummaryManager(
                stream=stream,
                window_size=context.window_size,
                budget=budget,
                refresh_interval=config.summary_refresh_interval,
                delta_tolerance=DELTA_TOLERANCE,
                outbox=self.outbox,
            )
            for stream in (StreamId.R, StreamId.S)
        }
        self.remote = RemoteSummaryTable()
        self._remote_histograms = SlotRows(context.peer_ids, DISTRIBUTION_BINS)
        self.flow = FlowController(context.num_nodes, config.flow)
        self._round_robin = RoundRobinPolicy(context)
        self._cached_probabilities: Dict[StreamId, Dict[int, float]] = {}
        self._cached_similarities: Dict[StreamId, Dict[int, float]] = {}
        self._arrivals_since_probability_refresh = 0
        self.worst_case_mode = False

    # ------------------------------------------------------------------
    # summary maintenance
    # ------------------------------------------------------------------

    def on_local_insert(
        self, item: StreamTuple, evicted: Sequence[StreamTuple]
    ) -> None:
        super().on_local_insert(item, evicted)
        self.managers[item.stream].observe(item.key)
        self._arrivals_since_probability_refresh += 1
        if (
            self._arrivals_since_probability_refresh
            >= self.context.config.summary_refresh_interval
        ):
            self._invalidate_probabilities()

    def on_remote_summary(self, source: int, update: SummaryUpdate) -> None:
        if update.algorithm != DftSummaryManager.ALGORITHM:
            return
        if self.remote.apply(source, update):
            self._on_slot_changed(source, update.stream)
            self._invalidate_probabilities()

    def _on_slot_changed(self, peer: int, stream: StreamId) -> None:
        """``peer``'s ``stream`` coefficient map was replaced or merged into."""
        self._remote_histograms.mark(peer, stream)

    def _invalidate_probabilities(self) -> None:
        self._cached_probabilities.clear()
        self._cached_similarities.clear()
        self._arrivals_since_probability_refresh = 0

    def resync_peer(self, peer: int) -> None:
        """Queue full coefficient snapshots for a recovering peer.

        The peer missed an unknown number of deltas while unreachable;
        merging further deltas over its stale map would leave phantom
        coefficients, so it gets the complete current state instead.
        """
        for stream in (StreamId.R, StreamId.S):
            update = self.managers[stream].resync_update()
            if update is not None:
                self.outbox.queue_for(peer, update)

    def observe_congestion(self, queue_depth: int) -> None:
        previous = self.congestion_scale
        super().observe_congestion(queue_depth)
        # Cached probabilities embed the budget; refresh them when the
        # resource-aware scale moved materially.
        if abs(self.congestion_scale - previous) > 0.1:
            self._cached_probabilities.clear()

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> Dict[str, object]:
        state = super().checkpoint_state()
        state["managers"] = {
            stream.value: self.managers[stream].checkpoint_state()
            for stream in (StreamId.R, StreamId.S)
        }
        state["flow"] = self.flow.checkpoint_state()
        state["round_robin_cursor"] = self._round_robin._cursor
        state["arrivals_since_probability_refresh"] = (
            self._arrivals_since_probability_refresh
        )
        state["worst_case_mode"] = self.worst_case_mode
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        super().restore_state(state)
        for stream in (StreamId.R, StreamId.S):
            self.managers[stream].restore_state(state["managers"][stream.value])
        self.flow.restore_state(state["flow"])
        self._round_robin._cursor = int(state["round_robin_cursor"])
        self._arrivals_since_probability_refresh = int(
            state["arrivals_since_probability_refresh"]
        )
        self.worst_case_mode = bool(state["worst_case_mode"])
        # Soft state: remote summaries and the decision caches derived
        # from them died with the process; the resync refills them.
        self.remote.clear()
        self._remote_histograms.clear()
        self._cached_probabilities.clear()
        self._cached_similarities.clear()

    # ------------------------------------------------------------------
    # similarity and probabilities
    # ------------------------------------------------------------------

    @functools.cached_property
    def _histogram_edges(self) -> np.ndarray:
        return histogram_edges(self.context.domain)

    def _histogram(self, coefficient_map: Dict[int, complex]) -> np.ndarray:
        return window_histogram(
            coefficient_map, self.context.window_size, self._histogram_edges
        )

    def peer_similarities(self, stream: StreamId) -> Dict[int, float]:
        """Similarity of the local ``stream`` signal to each peer's
        opposite-stream signal (recomputed lazily at the refresh cadence)."""
        cached = self._cached_similarities.get(stream)
        if cached is not None:
            return cached
        local_map = self.managers[stream].local_coefficients()
        other = stream.other
        if self.context.config.similarity is SimilarityMeasure.DISTRIBUTION:
            # One local histogram against the stack of remote ones, whose
            # rows are re-derived only for slots that changed since the
            # last rebuild.
            rows, present = self._remote_histograms.read(
                other, lambda peer: self._histogram(self.remote.get(peer, other))
            )
            cosines = histogram_cosines(self._histogram(local_map), rows)
            similarities = {
                peer: cosine if known else UNKNOWN_PEER_SIMILARITY
                for peer, cosine, known in zip(
                    self.peer_ids, cosines.tolist(), present.tolist()
                )
            }
        else:
            similarities = {}
            for peer in self.peer_ids:
                remote_map = self.remote.get(peer, other)
                if remote_map is None:
                    similarities[peer] = UNKNOWN_PEER_SIMILARITY
                    continue
                similarities[peer] = similarity(
                    self.context.config.similarity,
                    local_map,
                    remote_map,
                    self.context.window_size,
                    domain=self.context.domain,
                )
        self._cached_similarities[stream] = similarities
        return similarities

    def peer_probabilities(self, stream: StreamId) -> Dict[int, float]:
        """Water-filled forwarding probabilities for ``stream`` tuples."""
        cached = self._cached_probabilities.get(stream)
        if cached is not None:
            return cached
        similarities = self.peer_similarities(stream)
        known = {
            peer
            for peer in self.peer_ids
            if self.remote.get(peer, stream.other) is not None
        }
        # Only judge the worst case on mature evidence: every peer's
        # summary present and a full window's worth of local arrivals
        # (during warm-up every window looks like every other).
        mature = (
            len(known) == len(self.peer_ids)
            and self.tuples_seen >= self.context.window_size
        )
        worst_case = mature and self.flow.is_uniform_worst_case(similarities)
        if worst_case != self.worst_case_mode and self.telemetry is not None:
            self.telemetry.emit(
                "policy.worst_case_mode",
                category="policy",
                node=self.node_id,
                stream=stream.value,
                active=worst_case,
            )
        self.worst_case_mode = worst_case
        probabilities = self.flow.probabilities(similarities)
        self._cached_probabilities[stream] = probabilities
        return probabilities

    # ------------------------------------------------------------------
    # forwarding decision
    # ------------------------------------------------------------------

    def choose_destinations(self, item: StreamTuple) -> List[int]:
        probabilities = self.peer_probabilities(item.stream)
        if self.worst_case_mode:
            self.fallback_decisions += 1
            budget = self.context.config.flow.budget(
                self.context.num_nodes, self.congestion_scale
            )
            return self._round_robin.take_from_cycle(budget)
        return self._bernoulli_destinations(probabilities)

    def diagnostics(self) -> Dict[str, float]:
        counters = super().diagnostics()
        counters["uniform_detections"] = float(self.flow.uniform_detections)
        counters["dft_broadcasts"] = float(
            sum(m.broadcasts for m in self.managers.values())
        )
        return counters
