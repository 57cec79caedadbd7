"""The SKCH baseline (Section 6, after Alon et al. [1]).

Each site sketches its window's attribute-frequency vector with an AGMS
sketch and snapshots the counters to every peer.  The estimated join size
between the local window of a tuple's stream and each peer's
opposite-stream window weights that peer's flow factor: "a tuple is more
likely to be transmitted to those nodes which produce the most join
results".

Sketches estimate *aggregate* join sizes only -- unlike Bloom filters or
DFT reconstruction they cannot test an individual tuple's membership,
which is exactly why the paper finds SKCH transmits more messages than
BLOOM and DFTT under skew.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._rng import spawn
from repro.config import PolicyConfig
from repro.core.policies.base import STREAMS, PolicyContext, SummaryPolicy
from repro.core.summaries import SnapshotSummaryManager, SummaryUpdate
from repro.errors import ConfigurationError
from repro.sketches.agms import AgmsSketch, SketchShape
from repro.streams.tuples import StreamId, StreamTuple

COUNTERS_PER_SUMMARY_ENTRY = 5
"""4-byte counters packed into one 20-byte summary entry."""

SKETCH_RATIO = 5
"""The paper's s0:s1 ratio of the AGMS counter array."""

ALGORITHM = "skch"


def make_sketch_shared_state(
    config: PolicyConfig, window_size: int, rng: np.random.Generator
) -> Dict[str, object]:
    """Template sketches (one hash bank per stream) shared by all nodes.

    Total counters are sized to the common summary budget --
    ``W/kappa`` entries of 5 counters each -- with the paper's 5:1
    s0:s1 ratio.
    """
    entries = config.summary_budget(window_size)
    total = max(SKETCH_RATIO, entries * COUNTERS_PER_SUMMARY_ENTRY)
    # One hash bank for *everything*: R and S sketches must be mutually
    # comparable (the join-size inner product only makes sense when both
    # sides hash the key domain identically).
    shape = SketchShape.from_total(total, ratio=SKETCH_RATIO)
    template = AgmsSketch(shape, rng=spawn(rng, 1)[0])
    templates = {StreamId.R: template, StreamId.S: template}
    return {
        "sketch_templates": templates,
        "sketch_entries": max(1, math.ceil(shape.total / COUNTERS_PER_SUMMARY_ENTRY)),
    }


class SketchPolicy(SummaryPolicy):
    """AGMS join-size-weighted probabilistic forwarding."""

    name = "SKCH"

    def __init__(self, context: PolicyContext, shared: Dict[str, object]) -> None:
        templates = shared.get("sketch_templates")
        if templates is None:
            raise ConfigurationError(
                "SketchPolicy requires shared state from make_sketch_shared_state"
            )
        self._entries = int(shared["sketch_entries"])
        self.sketches: Dict[StreamId, AgmsSketch] = {
            stream: template.spawn_compatible()
            for stream, template in templates.items()
        }
        super().__init__(context)
        self._remote_sketches: Dict[Tuple[int, StreamId], AgmsSketch] = {}
        self._cached_probabilities: Dict[StreamId, Dict[int, float]] = {}
        self._budget_caches = (self._cached_probabilities,)
        self._arrivals_since_refresh = 0

    def _make_manager(self, stream: StreamId) -> SnapshotSummaryManager:
        return self._snapshot_manager(
            stream, ALGORITHM, self._entries, self.sketches[stream].snapshot_counters
        )

    # ------------------------------------------------------------------
    # summary maintenance
    # ------------------------------------------------------------------

    def on_local_insert(
        self, item: StreamTuple, evicted: Sequence[StreamTuple]
    ) -> None:
        super().on_local_insert(item, evicted)
        sketch = self.sketches[item.stream]
        sketch.update(item.key, +1)
        for old in evicted:
            sketch.update(old.key, -1)
        self.managers[item.stream].tick()
        self._arrivals_since_refresh += 1
        if self._arrivals_since_refresh >= self.context.config.summary_refresh_interval:
            self._cached_probabilities.clear()
            self._arrivals_since_refresh = 0

    def on_evictions(self, stream: StreamId, evicted: Sequence[StreamTuple]) -> None:
        sketch = self.sketches[stream]
        for old in evicted:
            sketch.update(old.key, -1)

    def on_remote_summary(self, source: int, update: SummaryUpdate) -> None:
        if update.algorithm != ALGORITHM:
            return
        if self.remote.apply(source, update):
            key = (source, update.stream)
            if key not in self._remote_sketches:
                self._remote_sketches[key] = self.sketches[update.stream].spawn_compatible()
            self._remote_sketches[key].load_counters(update.payload)
            self._cached_probabilities.clear()

    def remote_sketch(self, peer: int, stream: StreamId) -> Optional[AgmsSketch]:
        return self._remote_sketches.get((peer, stream))

    # ------------------------------------------------------------------
    # join-size-weighted flow factors
    # ------------------------------------------------------------------

    def peer_similarities(self, stream: StreamId) -> Dict[int, float]:
        """Normalized estimated join sizes against each peer.

        The AGMS inner product estimates |local_window >< remote_window|;
        normalizing by the geometric mean of the two self-join sizes maps
        it into a [0, 1] correlation-like score comparable across peers.
        """
        local = self.sketches[stream]
        local_f2 = max(local.self_join_size_estimate(), 1e-9)
        similarities: Dict[int, float] = {}
        for peer in self.peer_ids:
            remote = self.remote_sketch(peer, stream.other)
            if remote is None:
                similarities[peer] = 0.5
                continue
            remote_f2 = max(remote.self_join_size_estimate(), 1e-9)
            estimate = local.join_size_estimate(remote)
            score = estimate / math.sqrt(local_f2 * remote_f2)
            similarities[peer] = float(np.clip(score, 0.0, 1.0))
        return similarities

    def peer_probabilities(self, stream: StreamId) -> Dict[int, float]:
        cached = self._cached_probabilities.get(stream)
        if cached is not None:
            return cached
        probabilities = self.flow.probabilities(self.peer_similarities(stream))
        self._cached_probabilities[stream] = probabilities
        return probabilities

    def choose_destinations(self, item: StreamTuple) -> List[int]:
        return self._bernoulli_destinations(self.peer_probabilities(item.stream))

    def diagnostics(self) -> Dict[str, float]:
        counters = super().diagnostics()
        counters["sketch_broadcasts"] = float(
            sum(m.broadcasts for m in self.managers.values())
        )
        return counters

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> Dict[str, object]:
        state = super().checkpoint_state()
        state["sketches"] = {
            stream.value: self.sketches[stream].checkpoint_state()
            for stream in STREAMS
        }
        state["arrivals_since_refresh"] = self._arrivals_since_refresh
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        super().restore_state(state)
        for stream in STREAMS:
            self.sketches[stream].restore_state(state["sketches"][stream.value])
        self._arrivals_since_refresh = int(state["arrivals_since_refresh"])
        # Peer sketches and derived probabilities are soft state.
        self._remote_sketches.clear()
        self._cached_probabilities.clear()
