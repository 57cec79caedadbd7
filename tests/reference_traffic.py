"""The per-message traffic tally, kept as the tests' oracle.

Until the send path tallied inline, ``Network.send`` looked its link up
through ``Network.link``, refused a self-send first, and counted the
message with ``TrafficStats.record``, which read the size and the summary
bytes through two ``Message`` methods.  ``send`` and ``record`` below are
those bodies moved here as functions of the network and of the stats
(``Message.summary_bytes`` became :func:`summary_bytes`), so the inline
tally of :meth:`repro.net.topology.Network.send` can be held to them
counter for counter, ``Counter`` order included, with ``==``
(``tests/property/test_traffic_equivalence.py``).  Since a message
stopped naming its destination, ``send`` takes it as an argument, and it
calls the hub's ``on_message_send`` only when the hub traces messages,
as the network has since the hub stopped counting sends.

:func:`forward` is the node's fan-out as it was before a broadcast
shared one message: ``JoinProcessingNode._send_tuple`` once per
destination, each building its own TUPLE message, sent through
:func:`send`.  The node's ``_forward`` is held to it delivery for
delivery by the same property file.
"""

from repro import config as testbed
from repro.errors import SimulationError
from repro.net.message import SUMMARY_COEFFICIENT_BYTES, Message, MessageKind
from repro.net.stats import TrafficStats
from repro.net.topology import Network


def summary_bytes(message: Message) -> int:
    """Bytes attributable to summary content (piggy-backed or standalone)."""
    return message.summary_entries * SUMMARY_COEFFICIENT_BYTES


def record(self: TrafficStats, message: Message) -> None:
    """Account one sent message."""
    kind = message.kind_name
    size = message.wire_bytes
    summary = summary_bytes(message)
    self.messages_by_kind[kind] += 1
    self.bytes_by_kind[kind] += size
    self.summary_bytes += summary
    self.net_data_bytes += size - summary
    self.summary_entries += message.summary_entries


def send(self: Network, message: Message, destination: int) -> float:
    """Transmit ``message`` over the mesh; returns its delivery time."""
    if message.source == destination:
        raise SimulationError("a node does not message itself")
    link = self.link(message.source, destination)
    arrival = link.send(message)
    record(self.stats, message)
    if self.telemetry is not None and self.telemetry.trace_messages:
        self.telemetry.on_message_send(self._scheduler.now, message, destination)
    return arrival


def send_tuple(node, item, destination: int, now: float) -> float:
    """Transmit a tuple with the summary deltas pending for
    ``destination`` aboard; returns the sender pause."""
    outbox = node.policy.outbox
    updates = outbox.take(destination) if outbox.has_pending(destination) else ()
    message = Message(
        kind=MessageKind.TUPLE,
        source=node.node_id,
        payload=(item, updates),
        summary_entries=(
            sum(update.entries for update in updates) if updates else 0
        ),
    )
    send(node.network, message, destination)
    node._last_contact[destination] = now
    return message.wire_bytes * 8.0 / testbed.SENDER_PACED_BPS


def forward(node, item, destinations, now: float, seconds: float) -> float:
    """One message per copy: ``seconds`` plus each copy's sender pause."""
    for destination in destinations:
        seconds += send_tuple(node, item, destination, now)
    return seconds
