"""Full-mesh network topology.

Section 3: "the communications architecture is such that every node is able
to converse with every other node" -- there is no central coordinator.
:class:`Network` wires one :class:`~repro.net.link.Link` per ordered
endpoint pair and exposes a simple ``send`` facade that also performs
traffic accounting.  ``send(message, destination)`` is one call per
copy; the destination picks the link, and the link reports it back with
each delivery and loss, so one :class:`~repro.net.message.Message` can
be sent to many peers.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro._rng import ensure_rng, spawn
from repro.errors import ConfigurationError, SimulationError
from repro.net.link import Link, LinkSpec
from repro.net.message import SUMMARY_COEFFICIENT_BYTES, Message
from repro.net.simulator import EventKeySource, EventScheduler
from repro.net.stats import TrafficStats


class Endpoint(Protocol):
    """Anything that can receive messages from the network.  Its ``take``
    attribute is its ingress (:meth:`repro.core.service.ServiceProcess.take`)."""

    take: Callable[[list], None]

    def on_message(self, message: Message) -> None:  # pragma: no cover - protocol
        ...


class Network:
    """A full mesh of point-to-point links between registered endpoints."""

    def __init__(
        self,
        scheduler: EventScheduler,
        num_nodes: int,
        spec: Optional[LinkSpec] = None,
        rng=None,
        fault_injector=None,
    ) -> None:
        self._scheduler = scheduler
        self._spec = spec if spec is not None else LinkSpec()
        self._endpoints: Dict[int, Endpoint] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        self._sorted_links: List[Tuple[Tuple[int, int], Link]] = []
        """``_links``' items by endpoint pair, kept in step by :meth:`link`."""
        self.fault_injector = fault_injector
        """Optional :class:`repro.net.faults.FaultInjector`; every link
        created after assignment consults it (the system wires it before
        any link exists)."""

        self.stats = TrafficStats()
        self.telemetry = None
        """Optional :class:`repro.telemetry.TelemetryHub`, wired by
        :meth:`attach_telemetry`."""

        # Every directed link's RNG is spawned up front and keyed by
        # ``(source, destination)``, so a link's jitter/loss stream is a
        # pure function of its endpoints and of the messages it carried,
        # whatever order the links first carried traffic in.
        self._num_nodes = num_nodes
        children = spawn(ensure_rng(rng), num_nodes * num_nodes)
        self._link_rngs: Dict[Tuple[int, int], np.random.Generator] = {
            (source, destination): children[source * num_nodes + destination]
            for source in range(num_nodes)
            for destination in range(num_nodes)
        }

        self.link_backlog_bound_s = 0.0
        """Per-link send-backlog cap applied to every link created after
        assignment (the system wires it before any link exists); 0 keeps
        backlogs unbounded.  See :class:`~repro.overload.OverloadSettings`."""

    def register(self, node_id: int, endpoint: Endpoint) -> None:
        """Attach an endpoint; links to existing endpoints are created lazily."""
        if node_id in self._endpoints:
            raise ConfigurationError("node id %d already registered" % node_id)
        self._endpoints[node_id] = endpoint

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._endpoints))

    def link(self, source: int, destination: int) -> Link:
        """The (lazily created) unidirectional link ``source -> destination``."""
        key = (source, destination)
        link = self._links.get(key)
        if link is None:
            if source == destination:
                raise SimulationError("a node does not message itself")
            if source not in self._endpoints or destination not in self._endpoints:
                raise SimulationError(
                    "link %d->%d references unregistered endpoint" % key
                )
            endpoint = self._endpoints[destination]
            rng = self._link_rngs.pop(key, None)
            if rng is None:
                raise SimulationError(
                    "link %d->%d outside the %d-node mesh"
                    % (source, destination, self._num_nodes)
                )
            link = Link(
                self._scheduler,
                self._spec,
                deliver=endpoint.on_message,
                take=endpoint.take,
                key_source=EventKeySource(
                    self._num_nodes + source * self._num_nodes + destination
                ),
                rng=rng,
                endpoints=key,
                fault_injector=self.fault_injector,
                on_drop=self._record_loss,
                on_deliver=self._record_delivery,
            )
            link.backlog_bound_s = self.link_backlog_bound_s
            self._links[key] = link
            insort(self._sorted_links, (key, link))
        return link

    def _record_loss(self, message: Message, destination: int) -> None:
        self.stats.record_loss(message)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.trace_messages:
            telemetry.on_message_drop(self._scheduler.now, message, destination)

    def _record_delivery(self, message: Message, destination: int) -> None:
        if self.telemetry is not None:
            self.telemetry.on_message_deliver(
                self._scheduler.now, message, destination
            )

    def send(self, message: Message, destination: int) -> float:
        """Transmit one copy of ``message`` to ``destination`` and tally
        it in :attr:`stats`; returns its delivery time.  A broadcast calls
        this once per destination with the same message."""
        link = self._links.get((message.source, destination))
        if link is None:
            link = self.link(message.source, destination)
        arrival = link.send(message)
        stats, kind, size = self.stats, message.kind_name, message.wire_bytes
        summary = message.summary_entries * SUMMARY_COEFFICIENT_BYTES
        stats.messages_by_kind[kind] += 1
        stats.bytes_by_kind[kind] += size
        stats.summary_bytes += summary
        stats.net_data_bytes += size - summary
        stats.summary_entries += message.summary_entries
        telemetry = self.telemetry
        if telemetry is not None and telemetry.trace_messages:
            telemetry.on_message_send(self._scheduler.now, message, destination)
        return arrival

    def attach_telemetry(self, hub) -> None:
        """Wire ``hub`` both ways: the network reports each delivery to it
        (and, with the hub's ``trace_messages``, each send and loss), and
        the hub reads sends, bytes, losses and link counts from
        :attr:`stats` and the links at its ticks."""
        self.telemetry = hub
        hub.network = self

    def iter_links(self):
        """Iterate ``((source, destination), link)`` over links that exist.

        Links are lazy, so only pairs that have carried traffic appear.
        Ordered by endpoint pair for deterministic consumers (samplers,
        the dashboard's busiest-links table).
        """
        return iter(self._sorted_links)

    def link_stats(self) -> Dict[Tuple[int, int], Tuple[int, int, int, int, int]]:
        """Per-directed-link ``(messages, bytes, messages_lost, bytes_lost,
        messages_shed)``.

        Only links that have carried traffic appear (links are lazy).
        The analysis helpers build traffic matrices from this; a sender's
        totals are its links' rows summed.
        """
        return {
            pair: (
                link.messages_sent,
                link.bytes_sent,
                link.messages_lost,
                link.bytes_lost,
                link.messages_shed,
            )
            for pair, link in self._links.items()
        }

    def total_messages_shed(self) -> int:
        """Messages shed at bounded send backlogs, across all links."""
        return sum(link.messages_shed for link in self._links.values())
