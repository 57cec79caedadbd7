"""The DFT policy (Section 5.2): flow filtering from spectral similarity.

Per stream, the node runs an incremental DFT over its window's joining
attributes and broadcasts coefficient deltas.  For a tuple of stream R
arriving at node i, the relevant similarity is between node i's *R* signal
and each peer j's *S* signal (that is where the tuple would join), and
symmetrically for S tuples.  Similarities feed the
:class:`~repro.core.flow.FlowController`, which water-fills the
T_i in [1, log N] budget into per-peer probabilities; the tuple is then
forwarded with an independent coin per peer (Figure 2).  A rebuild
records the fill's inputs and the fill is solved when a decision first
spends it (DFTT's estimates mostly never do).

When the controller detects the uniform worst case (negligible variance
across peers), the policy falls back to budgeted round-robin, as
Section 5.2.2 prescribes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.correlation import (
    SimilarityMeasure,
    histogram_cosines,
    histogram_edges,
    histogram_search_edges,
    similarity,
    sorted_histograms,
    sorted_reconstructions,
)
from repro.core.policies.base import PolicyContext, SummaryPolicy
from repro.core.policies.round_robin import take_from_cycle
from repro.core.summaries import (
    DftSummaryManager,
    RemoteSummaryTable,
    SummaryUpdate,
)
from repro.dft.reconstruction import CoefficientMap
from repro.streams.tuples import StreamId, StreamTuple

DELTA_TOLERANCE = 0.05
"""Relative change below which a DFT coefficient is not re-sent."""

UNKNOWN_PEER_SIMILARITY = 0.5
"""Prior similarity for peers whose summary has not arrived yet: neither
trusted nor written off, so early tuples still explore the mesh."""


class SlotRows:
    """The reconstruction of every remote (peer, stream) slot, kept until
    the slot changes.

    A summary is a synopsis the receiver keeps until the sender replaces
    it, so a slot is inverse-transformed once per change of its
    coefficient map: :meth:`mark` records a change, and :meth:`read`
    reconstructs the marked slots of one stream in one batched inverse
    DFT.  Each reconstruction is sorted, and its value histogram (the
    ``DISTRIBUTION`` similarity) is one search of the bin edges into the
    sorted row; with ``keep_windows`` the sorted row itself is kept too
    (DFTT's join estimates).  The rows of a stream sit in (peers x width)
    arrays, peers in ``peer_ids`` order, so a reader compares against
    every peer at once.
    """

    def __init__(
        self,
        peer_ids: Sequence[int],
        window_size: int,
        edges: np.ndarray,
        keep_windows: bool,
    ) -> None:
        self._positions = {peer: row for row, peer in enumerate(peer_ids)}
        self._window_size = window_size
        self._window_width = window_size if keep_windows else 0
        self._search_edges = histogram_search_edges(edges)
        self._tables: Dict[StreamId, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._changed: Dict[StreamId, Set[int]] = {}
        self._arrived: Dict[StreamId, Set[int]] = {}

    def mark(self, peer: int, stream: StreamId) -> None:
        """``peer``'s ``stream`` slot changed; its rows are stale."""
        if peer in self._positions:
            self._changed.setdefault(stream, set()).add(peer)
            self._arrived.setdefault(stream, set()).add(peer)

    def known(self, stream: StreamId) -> int:
        """How many peers' ``stream`` slots have arrived."""
        return len(self._arrived.get(stream, ()))

    def clear(self) -> None:
        """Forget every row (the remote table was cleared)."""
        self._tables.clear()
        self._changed.clear()
        self._arrived.clear()

    def read(
        self,
        stream: StreamId,
        remote: RemoteSummaryTable,
        local: Optional[CoefficientMap] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Up-to-date ``(windows, histograms, present, local histogram)``.

        ``windows`` (zero-width without ``keep_windows``) and
        ``histograms`` hold every peer's ``stream`` slot, re-derived from
        ``remote`` for the slots marked since the last read;
        ``present[row]`` is whether that peer has a summary at all
        (rows of absent peers are zero).  ``local`` -- the node's own
        kept coefficients -- joins the same batch, and its histogram is
        the fourth item (``None`` without it).  The arrays are
        overwritten by later reads.
        """
        table = self._tables.get(stream)
        if table is None:
            peers = len(self._positions)
            table = self._tables[stream] = (
                np.zeros((peers, self._window_width)),
                np.zeros((peers, self._search_edges.size - 1)),
                np.zeros(peers, dtype=bool),
            )
        windows, histograms, present = table
        peers = list(self._changed.pop(stream, ()))
        maps = [remote.get(peer, stream) for peer in peers]
        if local is not None:
            maps.append(local)
        if not maps:
            return windows, histograms, present, None
        rows = sorted_reconstructions(maps, self._window_size)
        counts = sorted_histograms(rows, self._search_edges)
        for index, peer in enumerate(peers):
            row = self._positions[peer]
            if self._window_width:
                windows[row] = rows[index]
            histograms[row] = counts[index]
            present[row] = True
        return windows, histograms, present, counts[-1] if local is not None else None


class WaterFill:
    """One rebuild's water-fill inputs, solved on the first read.

    ``target`` is the flow controller's T at the rebuild, so a budget that
    moves before the first read does not reach the solve: the probabilities
    and ``weight`` are the ones an immediate solve would have produced.
    """

    __slots__ = ("similarities", "target", "probabilities", "weight")

    def __init__(self, similarities: Dict[int, float], target: float) -> None:
        self.similarities = similarities
        self.target = target
        self.probabilities: Optional[Dict[int, float]] = None
        self.weight = 0.0


class DftPolicy(SummaryPolicy):
    """Correlation-filtered forwarding from exchanged DFT coefficients."""

    name = "DFT"

    keeps_windows = False
    """Whether the slot table keeps each reconstructed window, not only its
    histogram (DFTT's join estimates read the windows)."""

    def __init__(self, context: PolicyContext) -> None:
        super().__init__(context)
        self._slots = SlotRows(
            context.peer_ids,
            context.window_size,
            histogram_edges(context.domain),
            self.keeps_windows,
        )
        self._round_robin_cursor = 0
        """Where the worst-case fallback's peer cycle resumes."""
        self._fills: Dict[StreamId, WaterFill] = {}
        # A fill embeds the budget; rebuild it when the resource-aware
        # scale moved materially.
        self._budget_caches = (self._fills,)
        self._latest_fill: Optional[WaterFill] = None
        """The fill of the latest rebuild, whose weight a checkpoint
        records as ``flow.last_weight``; kept across invalidations."""
        self._cached_similarities: Dict[StreamId, Dict[int, float]] = {}
        self._arrivals_since_probability_refresh = 0
        self.worst_case_mode = False

    def _make_manager(self, stream: StreamId) -> DftSummaryManager:
        config = self.context.config
        return DftSummaryManager(
            stream=stream,
            window_size=self.context.window_size,
            budget=config.summary_budget(self.context.window_size),
            refresh_interval=config.summary_refresh_interval,
            delta_tolerance=DELTA_TOLERANCE,
            outbox=self.outbox,
        )

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
        if update.algorithm != DftSummaryManager.algorithm:
            return
        if self.remote.apply(source, update):
            self._on_slot_changed(source, update.stream)
            self._invalidate_probabilities()

    def _on_slot_changed(self, peer: int, stream: StreamId) -> None:
        """``peer``'s ``stream`` coefficient map was replaced or merged into."""
        self._slots.mark(peer, stream)

    def _invalidate_probabilities(self) -> None:
        self._fills.clear()
        self._cached_similarities.clear()
        self._arrivals_since_probability_refresh = 0

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> Dict[str, object]:
        latest = self._latest_fill
        if latest is not None:
            # The recorded weight is the latest rebuild's, as if every
            # rebuild had solved its fill on the spot.
            self._solve(latest)
            self.flow.last_weight = latest.weight
        state = super().checkpoint_state()
        state["round_robin_cursor"] = self._round_robin_cursor
        state["arrivals_since_probability_refresh"] = (
            self._arrivals_since_probability_refresh
        )
        state["worst_case_mode"] = self.worst_case_mode
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        super().restore_state(state)
        self._round_robin_cursor = int(state["round_robin_cursor"])
        self._arrivals_since_probability_refresh = int(
            state["arrivals_since_probability_refresh"]
        )
        self.worst_case_mode = bool(state["worst_case_mode"])
        # The decision caches derive from the remote summaries the
        # superclass just cleared; the resync refills them.
        self._slots.clear()
        self._fills.clear()
        self._latest_fill = None
        self._cached_similarities.clear()

    # ------------------------------------------------------------------
    # similarity and probabilities
    # ------------------------------------------------------------------

    def peer_similarities(self, stream: StreamId) -> Dict[int, float]:
        """Similarity of the local ``stream`` signal to each peer's
        opposite-stream signal (recomputed lazily at the refresh cadence)."""
        cached = self._cached_similarities.get(stream)
        if cached is not None:
            return cached
        other = stream.other
        if self.context.config.similarity is SimilarityMeasure.DISTRIBUTION:
            # One local histogram against the stack of remote ones; the
            # local window joins the inverse DFT of the slots that changed
            # since the last rebuild.
            _, histograms, present, local = self._slots.read(
                other, self.remote, self.managers[stream].dft.coefficient_view()
            )
            cosines = histogram_cosines(local, histograms)
            similarities = dict(
                zip(
                    self.peer_ids,
                    np.where(present, cosines, UNKNOWN_PEER_SIMILARITY).tolist(),
                )
            )
        else:
            local_map = self.managers[stream].local_coefficients()
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
                )
        self._cached_similarities[stream] = similarities
        return similarities

    def _rebuild(self, stream: StreamId) -> WaterFill:
        """The decision state for ``stream`` tuples: the similarities, the
        worst-case verdict and the fill's inputs, kept until invalidated."""
        fill = self._fills.get(stream)
        if fill is not None:
            return fill
        similarities = self.peer_similarities(stream)
        # Only judge the worst case on mature evidence: every peer's
        # summary present and a full window's worth of local arrivals
        # (during warm-up every window looks like every other).
        mature = (
            self._slots.known(stream.other) == len(self.peer_ids)
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
        fill = WaterFill(similarities, self.flow.target(len(similarities)))
        self._fills[stream] = self._latest_fill = fill
        return fill

    def _solve(self, fill: WaterFill) -> Dict[int, float]:
        """``fill``'s water-filled forwarding probabilities, solved on the
        first call."""
        if fill.probabilities is None:
            fill.probabilities = self.flow.probabilities(
                fill.similarities, fill.target
            )
            fill.weight = self.flow.last_weight
        return fill.probabilities

    # ------------------------------------------------------------------
    # forwarding decision
    # ------------------------------------------------------------------

    def choose_destinations(self, item: StreamTuple) -> List[int]:
        fill = self._rebuild(item.stream)
        if self.worst_case_mode:
            return self._fallback_destinations()
        return self._bernoulli_destinations(self._solve(fill))

    def _fallback_destinations(self) -> List[int]:
        """Section 5.2.2's worst-case fallback: budgeted round-robin."""
        self.fallback_decisions += 1
        destinations, self._round_robin_cursor = take_from_cycle(
            self.peer_ids, self._round_robin_cursor, self.flow.budget, self.context.rng
        )
        return destinations

    def diagnostics(self) -> Dict[str, float]:
        counters = super().diagnostics()
        counters["uniform_detections"] = float(self.flow.uniform_detections)
        counters["dft_broadcasts"] = float(
            sum(m.broadcasts for m in self.managers.values())
        )
        return counters
