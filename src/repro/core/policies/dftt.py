"""The DFTT policy (Section 5.3): DFT flow filtering + tuple reconstruction.

DFTT keeps everything the DFT policy does and adds Figure 7's lines 6-8:
from each peer's received coefficients it reconstructs an *approximation
of the remote window's attribute values* (inverse DFT, Equation 10).
``JoinEstimate`` then answers, per arriving tuple, how many matches each
peer's opposite-stream window is estimated to hold, and the tuple is
forwarded to the peers with the largest positive estimates --
deterministically, up to the flow budget.

Reconstruction error handling.  On smooth signals (the paper's stock
stream) the round-off is lossless and estimates are exact memberships.
On rougher signals the per-value error grows, so a fixed +-0.5 match rule
would estimate zero everywhere.  DFTT therefore *self-calibrates*: each
node reconstructs its own window from its own truncated coefficients --
exactly what a remote peer would see -- measures the empirical absolute
reconstruction error, and uses a high percentile of it as the match
tolerance for remote estimates.  A tuple matches a reconstructed value
when they differ by at most that tolerance (never less than the paper's
0.5 round-off radius).  The tolerance collapses to 0.5 on stock-like data
(recovering exact membership testing) and widens gracefully on noisy
data, where it still discriminates peers by attribute *range* -- the
geographic-skew structure the paper exploits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.policies import base
from repro.core.policies.base import PolicyContext
from repro.core.policies.dft import DftPolicy
from repro.dft.reconstruction import reconstruct_values
from repro.streams.tuples import StreamId, StreamTuple

TOLERANCE_PERCENTILE = 90.0
"""Percentile of the self-measured reconstruction error used as the match
tolerance (conservative: most true matches fall within it)."""

MIN_TOLERANCE = 0.5
"""The paper's integer round-off radius; never match tighter than this."""

RELATIVE_ESTIMATE_THRESHOLD = 0.3
"""Peers whose estimate falls below this fraction of the best peer's are
treated as reconstruction background noise and pruned.  The budget is a
ceiling, not a quota: when one peer clearly holds the matches, DFTT sends
one message."""


def error_percentile(errors: np.ndarray) -> float:
    """``np.percentile(errors, TOLERANCE_PERCENTILE)``, bit for bit, from
    one partition.

    numpy's default (linear) method reads the two order statistics around
    ``(n - 1) * q`` and interpolates as ``a + (b - a) * gamma``, or
    ``b - (b - a) * (1 - gamma)`` once gamma >= 0.5; selecting just those
    two skips everything else ``np.percentile`` sets up per call.
    """
    position = (errors.size - 1) * (TOLERANCE_PERCENTILE / 100)
    lower = int(position)
    upper = min(lower + 1, errors.size - 1)
    gamma = position - lower
    a, b = np.partition(errors, (lower, upper))[[lower, upper]].tolist()
    if gamma >= 0.5:
        return b - (b - a) * (1.0 - gamma)
    return a + (b - a) * gamma


class DfttPolicy(DftPolicy):
    """DFT policy augmented with remote-window reconstruction."""

    name = "DFTT"

    keeps_windows = True

    def __init__(self, context: PolicyContext) -> None:
        super().__init__(context)
        self._unread: Dict[StreamId, Set[int]] = {}
        """Per stream, the peers whose slot changed since the estimates
        last read the table (what ``reconstruction_refreshes`` counts)."""
        self._peer_order = np.asarray(context.peer_ids)
        self._tolerances: Dict[StreamId, float] = {}
        self.reconstruction_refreshes = 0
        self.estimate_hits = 0
        self.estimate_misses = 0

    # ------------------------------------------------------------------
    # self-calibrated match tolerance
    # ------------------------------------------------------------------

    def match_tolerance(self, stream: StreamId) -> float:
        """Tolerance for matching keys against reconstructed ``stream`` values.

        Measured on the node's own window: reconstruct it from the same
        truncated coefficients a peer would receive and take a high
        percentile of the absolute error.  Cached until summaries refresh.
        """
        cached = self._tolerances.get(stream)
        if cached is not None:
            return cached
        manager = self.managers[stream]
        actual = manager.dft.buffer_values()
        if actual.size == 0:
            return MIN_TOLERANCE
        estimate = reconstruct_values(
            manager.dft.coefficient_view(),
            self.context.window_size,
            round_to_int=False,
        )[: actual.size]
        errors = np.abs(actual - estimate)
        tolerance = max(MIN_TOLERANCE, error_percentile(errors))
        self._tolerances[stream] = tolerance
        return tolerance

    def _invalidate_probabilities(self) -> None:
        super()._invalidate_probabilities()
        self._tolerances.clear()

    # ------------------------------------------------------------------
    # reconstruction table (Figure 7's inverse-DFT lookup table)
    # ------------------------------------------------------------------

    def _on_slot_changed(self, peer: int, stream: StreamId) -> None:
        super()._on_slot_changed(peer, stream)
        if peer in self.peer_ids:
            self._unread.setdefault(stream, set()).add(peer)

    def _reconstructed_windows(self, stream: StreamId) -> Tuple[np.ndarray, np.ndarray]:
        """Every peer's estimated ``stream`` window as one sorted row each,
        plus which peers have one.

        The rows are the shared slot table's: a slot changed since the
        last similarity rebuild is reconstructed here, one already rebuilt
        there is not reconstructed again.
        """
        unread = self._unread.pop(stream, None)
        if unread:
            self.reconstruction_refreshes += len(unread)
        windows, _, present, _ = self._slots.read(stream, self.remote)
        return windows, present

    def _match_counts(self, item: StreamTuple) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Estimated matches of ``item`` in each peer's opposite window, in
        ``peer_ids`` order, and which peers have a summary; the counts are
        ``None`` while no peer has one."""
        opposite = item.stream.other
        rows, present = self._reconstructed_windows(opposite)
        if not self._slots.known(opposite):
            return None, present
        tolerance = self.match_tolerance(opposite)
        matches = (rows >= item.key - tolerance) & (rows <= item.key + tolerance)
        return matches.sum(axis=1), present

    # ------------------------------------------------------------------
    # forwarding decision (Figure 7, lines 6-10)
    # ------------------------------------------------------------------

    def choose_destinations(self, item: StreamTuple) -> List[int]:
        fill = self._rebuild(item.stream)
        if self.worst_case_mode:
            return self._fallback_destinations()

        counts, present = self._match_counts(item)
        unknown = self._slots.known(item.stream.other) < len(self.peer_ids)
        best = 0
        if counts is not None:
            if unknown:
                counts[~present] = 0
            estimates = counts.tolist()
            best = max(estimates)

        if best:
            self.estimate_hits += 1
            # Largest estimate first, ties by peer id.
            ranked = np.lexsort((self._peer_order, -counts))
            capacity = max(1, int(round(self.flow.budget)))
            # Spend only as much of the budget as the estimated matches
            # require: peers whose estimate is small relative to the best
            # peer's are reconstruction noise, not result mass.  This is
            # DFTT's headline saving -- knowing *where* the joins are lets
            # it underspend T_i.
            cutoff = RELATIVE_ESTIMATE_THRESHOLD * best
            peer_ids = self.peer_ids
            rng = self.context.rng
            destinations: List[int] = [
                peer_ids[row]
                for row in ranked[:capacity].tolist()
                if estimates[row] >= cutoff
            ]
            if len(destinations) < len(peer_ids) and (
                rng.random() < base.EXPLORE_PROBABILITY
            ):
                remaining = [peer for peer in peer_ids if peer not in destinations]
                destinations.append(remaining[int(rng.integers(0, len(remaining)))])
            return destinations

        self.estimate_misses += 1
        probabilities = self._solve(fill)
        if unknown:
            # No evidence yet about some peers: behave like plain DFT so
            # the system bootstraps before summaries have circulated.
            return self._bernoulli_destinations(probabilities)
        # Every peer is estimated to hold zero matches.  The reconstruction
        # is approximate, so spend a *reduced* probabilistic budget rather
        # than going silent -- this is DFTT's message saving in action.
        reduced = {
            peer: probability * base.EXPLORE_PROBABILITY
            for peer, probability in probabilities.items()
        }
        return self._bernoulli_destinations(reduced)

    def diagnostics(self) -> Dict[str, float]:
        counters = super().diagnostics()
        counters["reconstruction_refreshes"] = float(self.reconstruction_refreshes)
        counters["estimate_hits"] = float(self.estimate_hits)
        counters["estimate_misses"] = float(self.estimate_misses)
        return counters

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> Dict[str, object]:
        state = super().checkpoint_state()
        state["reconstruction_refreshes"] = self.reconstruction_refreshes
        state["estimate_hits"] = self.estimate_hits
        state["estimate_misses"] = self.estimate_misses
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        super().restore_state(state)
        self.reconstruction_refreshes = int(state["reconstruction_refreshes"])
        self.estimate_hits = int(state["estimate_hits"])
        self.estimate_misses = int(state["estimate_misses"])
        # Reconstructions and tolerances derive from the remote table the
        # superclass just cleared; they rebuild lazily after the resync.
        self._unread.clear()
        self._tolerances.clear()
