"""The BLOOM baseline (Section 6, after Broder & Mitzenmacher [5]).

Each site maintains a *counting* Bloom filter per stream over its window's
joining attributes (counting, so sliding-window evictions can decrement)
and periodically snapshots it to every peer.  An arriving tuple is tested
against each peer's opposite-stream filter: positive sites are forwarded
to directly (ranked by the min-counter multiplicity estimate, capped at
the flow budget), and the long-run hit rate per peer doubles as a
similarity signal for the probabilistic remainder of the budget --
"the flow factors are determined from the number of positive filter hits
that tuples generate".

All nodes must probe with identical hash functions, which
:func:`make_bloom_shared_state` provides (built once at query
dissemination time, like the paper's coordinated query setup).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro._rng import spawn
from repro.bloom.counting import CountingBloomFilter
from repro.config import PolicyConfig
from repro.core.policies import base
from repro.core.policies.base import STREAMS, PolicyContext, SummaryPolicy
from repro.core.summaries import SnapshotSummaryManager, SummaryUpdate
from repro.errors import ConfigurationError
from repro.streams.tuples import StreamId, StreamTuple

COUNTERS_PER_SUMMARY_ENTRY = 40
"""4-bit counters packed into one 20-byte summary entry."""

BLOOM_HASHES = 4
"""Hash functions per filter (probe positions per key)."""

ALGORITHM = "bloom"


def make_bloom_shared_state(
    config: PolicyConfig, window_size: int, rng: np.random.Generator
) -> Dict[str, object]:
    """Template filters (one per stream) every node spawns compatibly from.

    The filter is sized so its wire representation equals the DFT summary
    budget: ``W/kappa`` entries of 40 counters each.
    """
    entries = config.summary_budget(window_size)
    num_counters = entries * COUNTERS_PER_SUMMARY_ENTRY
    child_rngs = spawn(rng, 2)
    templates = {
        StreamId.R: CountingBloomFilter(
            num_counters, BLOOM_HASHES, rng=child_rngs[0]
        ),
        StreamId.S: CountingBloomFilter(
            num_counters, BLOOM_HASHES, rng=child_rngs[1]
        ),
    }
    return {"bloom_templates": templates, "bloom_entries": entries}


class BloomPolicy(SummaryPolicy):
    """Counting-Bloom-filter membership forwarding."""

    name = "BLOOM"

    def __init__(self, context: PolicyContext, shared: Dict[str, object]) -> None:
        templates = shared.get("bloom_templates")
        if templates is None:
            raise ConfigurationError(
                "BloomPolicy requires shared state from make_bloom_shared_state"
            )
        self._entries = int(shared["bloom_entries"])
        self.filters: Dict[StreamId, CountingBloomFilter] = {
            stream: template.spawn_compatible()
            for stream, template in templates.items()
        }
        super().__init__(context)
        # Per stream, each peer's filter in ``peer_ids`` order (None until
        # its first snapshot): a decision walks one list, no dict lookups.
        self._peer_slots = {peer: slot for slot, peer in enumerate(context.peer_ids)}
        self._remote_filters: Dict[StreamId, List[Optional[CountingBloomFilter]]] = {
            stream: [None] * len(context.peer_ids) for stream in STREAMS
        }
        # Exponentially-weighted per-peer hit rates, per local stream.
        self._hit_rates: Dict[StreamId, Dict[int, float]] = {
            stream: {peer: 0.5 for peer in context.peer_ids} for stream in STREAMS
        }
        self._hit_rate_decay = 0.98

    def _make_manager(self, stream: StreamId) -> SnapshotSummaryManager:
        return self._snapshot_manager(
            stream, ALGORITHM, self._entries, self.filters[stream].snapshot
        )

    # ------------------------------------------------------------------
    # summary maintenance
    # ------------------------------------------------------------------

    def on_local_insert(
        self, item: StreamTuple, evicted: Sequence[StreamTuple]
    ) -> None:
        super().on_local_insert(item, evicted)
        bloom = self.filters[item.stream]
        bloom.add(item.key)
        for old in evicted:
            bloom.remove(old.key)
        self.managers[item.stream].tick()

    def on_evictions(self, stream: StreamId, evicted: Sequence[StreamTuple]) -> None:
        bloom = self.filters[stream]
        for old in evicted:
            bloom.remove(old.key)

    def on_remote_summary(self, source: int, update: SummaryUpdate) -> None:
        if update.algorithm != ALGORITHM:
            return
        if self.remote.apply(source, update):
            row = self._remote_filters[update.stream]
            slot = self._peer_slots[source]
            if row[slot] is None:
                row[slot] = self.filters[update.stream].spawn_compatible()
            row[slot].load_snapshot(update.payload)

    # ------------------------------------------------------------------
    # forwarding decision
    # ------------------------------------------------------------------

    def choose_destinations(self, item: StreamTuple) -> List[int]:
        key = item.key
        hits: Dict[int, int] = {}
        unknown: List[int] = []
        rates = self._hit_rates[item.stream]
        remotes = self._remote_filters[item.stream.other]
        decay = self._hit_rate_decay
        gain = 1.0 - decay
        for peer, remote in zip(self.peer_ids, remotes):
            if remote is None:
                unknown.append(peer)
                continue
            # One question per peer: the min probed counter is positive
            # exactly when ``item.key in remote``.
            estimate = remote.count_estimate(key)
            hit = estimate > 0
            rates[peer] = decay * rates[peer] + gain * (1.0 if hit else 0.0)
            if hit:
                hits[peer] = estimate

        budget = self.flow.budget
        rng = self.context.rng
        if hits:
            ranked = sorted(hits, key=lambda p: (-hits[p], p))
            capacity = max(1, int(round(budget)))
            destinations = ranked[:capacity]
            remaining = [p for p in self.peer_ids if p not in destinations]
            if remaining and rng.random() < base.EXPLORE_PROBABILITY:
                destinations.append(remaining[int(rng.integers(0, len(remaining)))])
            return destinations

        if unknown:
            self.fallback_decisions += 1
            probabilities = self.flow.probabilities(
                {peer: 0.5 for peer in self.peer_ids}
            )
            return self._bernoulli_destinations(probabilities)

        # All filters answered "absent".  Counting Bloom filters have no
        # false negatives, so unlike DFTT's soft miss this is a hard one --
        # but the snapshot may be stale, so keep a thin exploration flow
        # driven by the learned hit rates.
        probabilities = self.flow.probabilities(self._hit_rates[item.stream])
        reduced = {
            peer: probability * base.EXPLORE_PROBABILITY
            for peer, probability in probabilities.items()
        }
        return self._bernoulli_destinations(reduced)

    def diagnostics(self) -> Dict[str, float]:
        counters = super().diagnostics()
        counters["bloom_broadcasts"] = float(
            sum(m.broadcasts for m in self.managers.values())
        )
        counters["bloom_fill_r"] = self.filters[StreamId.R].fill_ratio()
        counters["bloom_fill_s"] = self.filters[StreamId.S].fill_ratio()
        return counters

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> Dict[str, object]:
        state = super().checkpoint_state()
        state["filters"] = {
            stream.value: self.filters[stream].checkpoint_state()
            for stream in STREAMS
        }
        # Each stream's row is read once, not once per peer: a StreamId
        # key hashes through a Python-level ``Enum.__hash__``.
        state["hit_rates"] = {
            stream.value: {str(peer): rates[peer] for peer in self.peer_ids}
            for stream, rates in self._hit_rates.items()
        }
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        super().restore_state(state)
        for stream in STREAMS:
            self.filters[stream].restore_state(state["filters"][stream.value])
            self._hit_rates[stream] = {
                peer: float(state["hit_rates"][stream.value][str(peer)])
                for peer in self.peer_ids
            }
        # Peer filters died with the process; resync snapshots refill them.
        for row in self._remote_filters.values():
            row[:] = [None] * len(row)
