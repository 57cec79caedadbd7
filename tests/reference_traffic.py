"""The per-message traffic tally, kept as the tests' oracle.

Until the send path tallied inline, ``Network.send`` looked its link up
through ``Network.link``, refused a self-send first, and counted the
message with ``TrafficStats.record``, which read the size and the summary
bytes through two ``Message`` methods.  ``send`` and ``record`` below are
those bodies moved here as functions of the network and of the stats
(``Message.summary_bytes`` became :func:`summary_bytes`), so the inline
tally of :meth:`repro.net.topology.Network.send` can be held to them
counter for counter, ``Counter`` order included, with ``==``
(``tests/property/test_traffic_equivalence.py``).
"""

from repro.errors import SimulationError
from repro.net.message import SUMMARY_COEFFICIENT_BYTES, Message
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


def send(self: Network, message: Message) -> float:
    """Transmit ``message`` over the mesh; returns its delivery time."""
    if message.source == message.destination:
        raise SimulationError("a node does not message itself")
    link = self.link(message.source, message.destination)
    arrival = link.send(message)
    record(self.stats, message)
    if self.telemetry is not None:
        self.telemetry.on_message_send(self._scheduler.now, message)
    return arrival
