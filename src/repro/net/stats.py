"""Traffic accounting.

:class:`TrafficStats` tallies messages and bytes by category; a send is
tallied inline by :meth:`repro.net.topology.Network.send`.  The split
between *net data* bytes (tuple bodies, headers) and *summary* bytes
(DFT coefficients, Bloom fragments, sketch fragments -- whether piggy-backed
or standalone) is what Figure 8 reports as the coefficient-update overhead
percentage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

from repro.net.message import Message


@dataclass
class TrafficStats:
    """Mutable counters for simulated network traffic."""

    messages_by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    summary_bytes: int = 0
    net_data_bytes: int = 0
    summary_entries: int = 0
    messages_lost: int = 0
    bytes_lost: int = 0
    lost_by_kind: Counter = field(default_factory=Counter)

    def record_loss(self, message: Message) -> None:
        """Account one message dropped in transit.

        Lost messages were already counted as sent by
        :meth:`repro.net.topology.Network.send` (their bytes occupied the
        link); these counters make the loss itself visible
        instead of leaving it implied by missing deliveries.
        """
        self.messages_lost += 1
        self.bytes_lost += message.wire_bytes
        self.lost_by_kind[message.kind_name] += 1

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_kind.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())

    def summary_overhead_fraction(self) -> float:
        """Summary bytes as a fraction of net-data bytes (Figure 8's y-axis).

        Returns 0 when no net data has been transmitted.
        """
        if self.net_data_bytes == 0:
            return 0.0
        return self.summary_bytes / self.net_data_bytes

    def iter_counters(self) -> Iterator[Tuple[str, Dict[str, str], float]]:
        """Yield ``(metric, labels, value)`` for every counter, sorted.

        The telemetry hub snapshots these into registry time series at
        sampling ticks, which is how :class:`TrafficStats` stays the
        always-on accumulator while the registry provides the history.
        """
        for kind in sorted(self.messages_by_kind):
            yield "repro_traffic_messages_total", {"kind": kind}, float(
                self.messages_by_kind[kind]
            )
        for kind in sorted(self.bytes_by_kind):
            yield "repro_traffic_bytes_total", {"kind": kind}, float(
                self.bytes_by_kind[kind]
            )
        for kind in sorted(self.lost_by_kind):
            yield "repro_traffic_lost_total", {"kind": kind}, float(
                self.lost_by_kind[kind]
            )
        yield "repro_traffic_summary_bytes_total", {}, float(self.summary_bytes)
        yield "repro_traffic_net_data_bytes_total", {}, float(self.net_data_bytes)
        yield "repro_traffic_summary_entries_total", {}, float(self.summary_entries)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for result reporting."""
        return {
            "total_messages": self.total_messages,
            "total_bytes": self.total_bytes,
            "summary_bytes": self.summary_bytes,
            "net_data_bytes": self.net_data_bytes,
            "summary_entries": self.summary_entries,
            "summary_overhead_fraction": self.summary_overhead_fraction(),
            "messages_lost": self.messages_lost,
            "bytes_lost": self.bytes_lost,
        }
