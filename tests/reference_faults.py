"""The scanning fault queries, kept as the tests' oracle.

Until the injector answered from tables rewritten at its activation and
deactivation edges, each of its six point queries scanned the active
events on every call.  The six bodies below are those scans moved here
verbatim, on a subclass, so the table-backed :class:`~repro.net.faults.
FaultInjector` under ``src/`` can be held to them answer for answer,
value and type, with ``==``.
"""

from repro.net.faults import FaultInjector, FaultKind


class ReferenceFaultInjector(FaultInjector):
    """``FaultInjector`` whose queries scan ``_active`` on every call."""

    def node_down(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently crashed."""
        if not self._active:
            return False
        return any(
            event.kind is FaultKind.NODE_CRASH and node_id in event.nodes
            for event in self._active
        )

    def restartable_down(self, node_id: int) -> bool:
        """Whether ``node_id`` is down under a *restartable* crash.

        Restartable crashes (``downtime_s > 0``) take the recovery path:
        local arrivals are logged for replay instead of being discarded.
        """
        if not self._active:
            return False
        return any(
            event.restartable and node_id in event.nodes for event in self._active
        )

    def link_blocked(self, source: int, destination: int) -> bool:
        """Whether the directed link is severed (outage, partition, crash)."""
        if not self._active:
            return False
        for event in self._active:
            if event.kind in (
                FaultKind.LINK_OUTAGE,
                FaultKind.PARTITION,
                FaultKind.NODE_CRASH,
            ) and event.affects_link(source, destination):
                return True
        return False

    def extra_loss(self, source: int, destination: int) -> float:
        """Additional drop probability currently applied to the link."""
        if not self._active:
            return 0.0
        survival = 1.0
        for event in self._active:
            if event.kind is FaultKind.LOSS_BURST and event.affects_link(
                source, destination
            ):
                survival *= 1.0 - event.loss_probability
        return 1.0 - survival

    def service_factor(self, node_id: int) -> float:
        """Multiplier currently applied to ``node_id``'s service times.

        The product over active OVERLOAD windows covering the node;
        1.0 when none are active.
        """
        if not self._active:
            return 1.0
        factor = 1.0
        for event in self._active:
            if event.kind is FaultKind.OVERLOAD and node_id in event.nodes:
                factor *= event.slowdown_factor
        return factor

    def extra_latency(self, source: int, destination: int) -> float:
        """Additional propagation delay currently applied to the link."""
        if not self._active:
            return 0  # what ``sum`` of nothing returns below
        return sum(
            event.extra_latency_s
            for event in self._active
            if event.kind is FaultKind.LATENCY_SPIKE
            and event.affects_link(source, destination)
        )
