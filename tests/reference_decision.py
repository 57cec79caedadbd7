"""Earlier forms of the forwarding decision, kept as the tests' oracle.

Three generations of the DFT/DFTT decision are kept here:

* the pairwise one: ``DftPolicy.peer_similarities`` called
  ``distribution_similarity`` once per peer per rebuild, and
  ``DfttPolicy.join_estimate`` did two scalar ``searchsorted`` calls per
  peer per tuple, both re-deriving everything from the coefficient maps;
* one inverse DFT per map per call, mirrors written with ``np.conj``,
  and each window bucketed on its own (clamp, ``searchsorted`` of the
  values, ``bincount``);
* DFTT's per-tuple ranking through a per-peer dict, a filtered dict, a
  sort and a remaining-peers list.

The bodies below are those functions moved here verbatim (only
``self``/table plumbing removed, ``self`` renamed ``policy``), so the
batched, shared-reconstruction path under ``src/`` can be held to them
float for float.

The current pairwise entry points, which no run calls (the policies
read every peer at once from their slot tables), are kept here too, moved
verbatim from ``src/`` with ``self`` renamed ``policy``:
:func:`distribution_similarity` (``core.correlation``) and
:func:`reconstructed_window`, :func:`join_estimates` and
:func:`join_estimate` (``DfttPolicy`` methods).

So is the eager decision, before a rebuild deferred its water-fill to the
first read and the coins came in one draw: ``DftPolicy.peer_probabilities``
(:func:`reference_peer_probabilities`) solved the fill at every rebuild,
:func:`reference_dft_choose_destinations` read it at once, and
:func:`reference_bernoulli_destinations` drew one scalar coin per peer.
Moved verbatim with ``self`` renamed ``policy``; the per-stream cache is
the policy's ``_fills``, so the policy's own invalidation points clear
it.  :class:`EagerDft` and :class:`EagerDftt` decide through these
bodies (and DFTT through :func:`reference_choose_destinations`).
"""

from typing import Dict, List, Optional

import numpy as np

from repro.core.correlation import (
    DISTRIBUTION_BINS,
    histogram_cosines,
    histogram_edges,
    histogram_search_edges,
    sorted_histograms,
    sorted_reconstructions,
)
from repro.core.policies import DftPolicy, DfttPolicy, base
from repro.core.policies.dftt import RELATIVE_ESTIMATE_THRESHOLD
from repro.core.policies.round_robin import take_from_cycle
from repro.dft.reconstruction import reconstruct_values
from repro.errors import SummaryError
from repro.streams.tuples import StreamId, StreamTuple


def distribution_similarity(
    x_map: Dict[int, complex],
    y_map: Dict[int, complex],
    window_size: int,
    domain: int,
    num_bins: int = DISTRIBUTION_BINS,
) -> float:
    """Cosine similarity of reconstructed attribute-value histograms.

    Both windows are rebuilt with the truncated inverse DFT (Section
    5.3), bucketed into ``num_bins`` equal-width ranges over ``[1,
    domain]`` (:func:`sorted_histograms`), and the two histograms
    compared by cosine similarity (:func:`histogram_cosines`).  Returns 0
    when either reconstruction is empty.
    """
    edges = histogram_edges(domain, num_bins)
    rows = sorted_reconstructions([x_map, y_map], window_size)
    x_hist, y_hist = sorted_histograms(rows, histogram_search_edges(edges))
    return float(histogram_cosines(x_hist, y_hist[np.newaxis])[0])


def reconstructed_window(
    policy, peer: int, stream: StreamId
) -> Optional[np.ndarray]:
    """Estimated (sorted) attribute values of ``peer``'s ``stream`` window."""
    if peer not in policy.peer_ids or policy.remote.get(peer, stream) is None:
        return None
    rows, _ = policy._reconstructed_windows(stream)
    # A copy: the row itself is overwritten by the next rebuild.
    return rows[policy.peer_ids.index(peer)].copy()


def join_estimates(policy, item: StreamTuple) -> Dict[int, Optional[int]]:
    """Estimated matches of ``item`` in each peer's opposite window.

    ``None`` means the peer's summary has not arrived yet (unknown,
    which is different from an estimated zero).
    """
    counts, present = policy._match_counts(item)
    if counts is None:
        return dict.fromkeys(policy.peer_ids)
    return {
        peer: count if known else None
        for peer, count, known in zip(
            policy.peer_ids, counts.tolist(), present.tolist()
        )
    }


def join_estimate(policy, item: StreamTuple, peer: int) -> Optional[int]:
    """:func:`join_estimates` for one peer."""
    return join_estimates(policy, item).get(peer)


def reference_distribution_similarity(
    x_map: Dict[int, complex],
    y_map: Dict[int, complex],
    window_size: int,
    domain: int,
    num_bins: int = 64,
) -> float:
    """``core.correlation.distribution_similarity``, pairwise."""
    if domain < 1:
        raise SummaryError("domain must be >= 1")
    if num_bins < 1:
        raise SummaryError("num_bins must be >= 1")
    histograms = []
    for coefficient_map in (x_map, y_map):
        values = reconstruct_values(coefficient_map, window_size, round_to_int=False)
        clamped = np.clip(values, 1, domain)
        histogram, _ = np.histogram(clamped, bins=num_bins, range=(1, domain + 1))
        histograms.append(histogram.astype(np.float64))
    x_hist, y_hist = histograms
    x_norm = np.linalg.norm(x_hist)
    y_norm = np.linalg.norm(y_hist)
    if x_norm == 0.0 or y_norm == 0.0:
        return 0.0
    return float(np.clip(np.dot(x_hist, y_hist) / (x_norm * y_norm), 0.0, 1.0))


def reference_bucket_values(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``core.correlation.bucket_values``, the policies' bucketing before
    histograms came from sorted rows: count reconstructed ``values`` per
    bin of ``histogram_edges``.

    Values reconstructed outside ``[1, domain]`` (ringing) are clamped to
    it; the outer edges carry the domain.  Bin ``i`` then holds
    ``edges[i] <= v < edges[i + 1]``, which is what
    ``np.histogram(clamped, bins, range=(1, domain + 1))`` resolves to.
    """
    clamped = np.clip(values, edges[0], edges[-1] - 1)
    indices = np.searchsorted(edges, clamped, side="right") - 1
    return np.bincount(indices, minlength=edges.size - 1).astype(np.float64)


def reference_join_estimate(
    coefficient_map: Optional[Dict[int, complex]],
    window_size: int,
    key: int,
    tolerance: float,
) -> Optional[int]:
    """``DfttPolicy.reconstructed_window`` + ``join_estimate``, pairwise."""
    if coefficient_map is None:
        return None
    values = reconstruct_values(coefficient_map, window_size, round_to_int=False)
    window = np.sort(values)
    low = np.searchsorted(window, key - tolerance, side="left")
    high = np.searchsorted(window, key + tolerance, side="right")
    return int(high - low)


def reference_reconstruct_values(
    coefficients: Dict[int, complex], window_size: int
) -> np.ndarray:
    """``expand_spectrum`` + ``reconstruct_values(..., round_to_int=False)``
    before batching: one map per call, mirrors written with ``np.conj``."""
    spectrum = np.zeros(window_size, dtype=np.complex128)
    for k, value in coefficients.items():
        spectrum[k] = value
        mirror = (window_size - k) % window_size
        if mirror != k:
            spectrum[mirror] = np.conj(value)
    return np.fft.ifft(spectrum).real


def reference_join_estimates(policy, item) -> Dict[int, Optional[int]]:
    """``DfttPolicy.join_estimates`` before the ranking moved onto arrays:
    a per-peer dict, ``None`` for a peer whose summary has not arrived."""
    opposite = item.stream.other
    rows, present = policy._reconstructed_windows(opposite)
    if not present.any():
        return dict.fromkeys(policy.peer_ids)
    tolerance = policy.match_tolerance(opposite)
    matches = (rows >= item.key - tolerance) & (rows <= item.key + tolerance)
    return {
        peer: count if known else None
        for peer, count, known in zip(
            policy.peer_ids, matches.sum(axis=1).tolist(), present.tolist()
        )
    }


def reference_choose_destinations(policy, item) -> List[int]:
    """``DfttPolicy.choose_destinations`` before the ranking moved onto
    arrays: a filtered dict, a sort and a remaining-peers list around
    :func:`reference_join_estimates`."""
    probabilities = policy.peer_probabilities(item.stream)
    if policy.worst_case_mode:
        policy.fallback_decisions += 1
        budget = policy.context.config.flow.budget(
            policy.context.num_nodes, policy.congestion_scale
        )
        destinations, policy._round_robin_cursor = take_from_cycle(
            policy.peer_ids, policy._round_robin_cursor, budget, policy.context.rng
        )
        return destinations

    all_estimates = reference_join_estimates(policy, item)
    unknown = None in all_estimates.values()
    estimates = {
        peer: estimate for peer, estimate in all_estimates.items() if estimate
    }

    budget = policy.flow.budget
    rng = policy.context.rng
    if estimates:
        policy.estimate_hits += 1
        ranked = sorted(estimates, key=lambda p: (-estimates[p], p))
        capacity = max(1, int(round(budget)))
        # Spend only as much of the budget as the estimated matches
        # require: peers whose estimate is small relative to the best
        # peer's are reconstruction noise, not result mass.  This is
        # DFTT's headline saving -- knowing *where* the joins are lets
        # it underspend T_i.
        cutoff = RELATIVE_ESTIMATE_THRESHOLD * estimates[ranked[0]]
        destinations: List[int] = [
            peer for peer in ranked[:capacity] if estimates[peer] >= cutoff
        ]
        remaining = [
            peer
            for peer in policy.peer_ids
            if peer not in destinations
        ]
        if remaining and rng.random() < base.EXPLORE_PROBABILITY:
            destinations.append(
                remaining[int(rng.integers(0, len(remaining)))]
            )
        return destinations

    policy.estimate_misses += 1
    if unknown:
        # No evidence yet about some peers: behave like plain DFT so
        # the system bootstraps before summaries have circulated.
        return policy._bernoulli_destinations(probabilities)
    # Every peer is estimated to hold zero matches.  The reconstruction
    # is approximate, so spend a *reduced* probabilistic budget rather
    # than going silent -- this is DFTT's message saving in action.
    reduced = {
        peer: probability * base.EXPLORE_PROBABILITY
        for peer, probability in probabilities.items()
    }
    return policy._bernoulli_destinations(reduced)


def reference_peer_probabilities(policy, stream: StreamId) -> Dict[int, float]:
    """Water-filled forwarding probabilities for ``stream`` tuples."""
    cached = policy._fills.get(stream)
    if cached is not None:
        return cached
    similarities = policy.peer_similarities(stream)
    # Only judge the worst case on mature evidence: every peer's
    # summary present and a full window's worth of local arrivals
    # (during warm-up every window looks like every other).
    mature = (
        policy._slots.known(stream.other) == len(policy.peer_ids)
        and policy.tuples_seen >= policy.context.window_size
    )
    worst_case = mature and policy.flow.is_uniform_worst_case(similarities)
    if worst_case != policy.worst_case_mode and policy.telemetry is not None:
        policy.telemetry.emit(
            "policy.worst_case_mode",
            category="policy",
            node=policy.node_id,
            stream=stream.value,
            active=worst_case,
        )
    policy.worst_case_mode = worst_case
    probabilities = policy.flow.probabilities(similarities)
    policy._fills[stream] = probabilities
    return probabilities


def reference_dft_choose_destinations(policy, item: StreamTuple) -> List[int]:
    """``DftPolicy.choose_destinations`` on the eager fill."""
    probabilities = policy.peer_probabilities(item.stream)
    if policy.worst_case_mode:
        policy.fallback_decisions += 1
        budget = policy.context.config.flow.budget(
            policy.context.num_nodes, policy.congestion_scale
        )
        destinations, policy._round_robin_cursor = take_from_cycle(
            policy.peer_ids, policy._round_robin_cursor, budget, policy.context.rng
        )
        return destinations
    return policy._bernoulli_destinations(probabilities)


def reference_bernoulli_destinations(
    policy, probabilities: Dict[int, float]
) -> List[int]:
    """Independent coin per peer -- the paper's probabilistic transmit."""
    rng = policy.context.rng
    return [
        peer
        for peer, probability in probabilities.items()
        if probability > 0 and rng.random() < probability
    ]


class EagerDft(DftPolicy):
    """DFT deciding as before the deferred fill: every rebuild solves."""

    peer_probabilities = reference_peer_probabilities
    choose_destinations = reference_dft_choose_destinations
    _bernoulli_destinations = reference_bernoulli_destinations


class EagerDftt(DfttPolicy):
    """DFTT deciding as before the deferred fill, with the dict ranking."""

    peer_probabilities = reference_peer_probabilities
    choose_destinations = reference_choose_destinations
    _bernoulli_destinations = reference_bernoulli_destinations
