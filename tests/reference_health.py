"""The per-question forwarding-decision health check, kept as the tests' oracle.

``PeerHealthMonitor.degrade`` used to ask three questions per peer --
``observe_staleness`` (a linear walk over the bucket edges),
``is_suspected`` and ``is_stale`` -- each reading the peer's state
afresh.  It now answers them in one pass, with ``bisect_left`` for the
bucket and ``is_suspected`` called only past the timeout.  The bodies
below are the old ones moved here verbatim (as functions of the
monitor), so the fused pass can be held to them with ``==``.
"""

from typing import List, Tuple

from repro.core.health import STALENESS_BUCKETS_S


def reference_staleness(monitor, peer: int, now: float) -> float:
    """Age of the freshest summary applied from ``peer``."""
    return now - monitor._last_summary[peer]


def reference_is_stale(monitor, peer: int, now: float) -> bool:
    """Whether ``peer``'s summary is older than the staleness budget."""
    budget = monitor.settings.staleness_budget_s
    if budget <= 0:
        return False
    return reference_staleness(monitor, peer, now) > budget


def reference_observe_staleness(monitor, peer: int, now: float) -> None:
    """Record one forwarding decision's view of ``peer``'s staleness."""
    age = reference_staleness(monitor, peer, now)
    for index, edge in enumerate(STALENESS_BUCKETS_S):
        if age <= edge:
            monitor.staleness_histogram[index] += 1
            return
    monitor.staleness_histogram[-1] += 1


def reference_degrade(
    monitor, destinations: List[int], peer_ids: Tuple[int, ...], now: float
) -> List[int]:
    """``PeerHealthMonitor.degrade`` before the one-pass body."""
    chosen = set(destinations)
    for peer in peer_ids:
        reference_observe_staleness(monitor, peer, now)
        if monitor.is_suspected(peer, now):
            if peer in chosen:
                chosen.discard(peer)
                monitor.suppressed_sends += 1
            continue
        if not reference_is_stale(monitor, peer, now):
            continue
        if monitor.settings.degradation_mode == "broadcast":
            if peer not in chosen:
                chosen.add(peer)
                monitor.forced_broadcast_sends += 1
        elif peer in chosen:
            chosen.discard(peer)
            monitor.suppressed_sends += 1
    return sorted(chosen)
