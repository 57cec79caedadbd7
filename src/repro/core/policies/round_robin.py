"""Round-robin forwarding.

The paper's fallback for the uniform worst case (Section 5.2.2): when the
correlation signal carries no information, spread tuples evenly.  Each
tuple goes to the next ``floor(T)`` peers in cyclic order, plus one more
with probability ``frac(T)``, so the *expected* message complexity equals
the budget T exactly.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.core.policies.base import ForwardingPolicy, PolicyContext
from repro.streams.tuples import StreamTuple


def take_from_cycle(
    peers: Sequence[int], cursor: int, budget: float, rng
) -> Tuple[List[int], int]:
    """The next ``budget`` peers in cyclic order from ``cursor``, and the
    cursor after them (shared with DFT's worst-case fallback)."""
    if not peers:
        return [], cursor
    count = min(int(math.floor(budget)), len(peers))
    fraction = budget - math.floor(budget)
    if count < len(peers) and fraction > 0 and rng.random() < fraction:
        count += 1
    destinations = [peers[(cursor + offset) % len(peers)] for offset in range(count)]
    return destinations, (cursor + count) % len(peers)


class RoundRobinPolicy(ForwardingPolicy):
    """Budgeted cyclic tuple distribution."""

    name = "RR"

    def __init__(self, context: PolicyContext) -> None:
        super().__init__(context)
        self._cursor = 0

    def choose_destinations(self, item: StreamTuple) -> List[int]:
        budget = self.context.config.flow.budget(
            self.context.num_nodes, self.congestion_scale
        )
        destinations, self._cursor = take_from_cycle(
            self.peer_ids, self._cursor, budget, self.context.rng
        )
        return destinations

    def checkpoint_state(self) -> dict:
        state = super().checkpoint_state()
        state["cursor"] = self._cursor
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._cursor = int(state["cursor"])
