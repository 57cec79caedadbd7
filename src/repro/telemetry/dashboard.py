"""ASCII live dashboard: per-node rates and link utilisation mid-run.

Registered as a hub sampler, the dashboard renders one frame every
``DASHBOARD_INTERVAL_S`` of *simulated* time: per-node arrival/forward
rates since the previous frame, service-queue depth, link backlog, and
the running traffic split.  Frames are plain sequential text (no cursor
games), so the output works identically on a terminal, piped to a file,
or captured by a test.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, TextIO, Tuple

from repro.telemetry.registry import format_labels

DASHBOARD_INTERVAL_S = 5.0
"""Simulated seconds between frames (rounded up to whole sampling
ticks)."""

BAR_WIDTH = 20

SPARK_LEVELS = " .:-=+*#%@"
"""Ten ASCII intensity steps, lowest to highest."""

SPARK_WIDTH = 40

SPARK_METRICS = (
    "repro_sched_pending_events",
    "repro_node_queue_depth",
    "repro_link_backlog_seconds",
)
"""Registry series shown as sparklines, in display order."""

SPARK_ROWS = 8


def _bar(fraction: float, width: int = BAR_WIDTH) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def sparkline(values, width: int = SPARK_WIDTH) -> str:
    """Render the last ``width`` values as an ASCII intensity strip.

    The strip is scaled to the window's own min/max (a flat series
    renders as all-low), so it shows *shape*, not absolute magnitude --
    the magnitude is printed alongside.
    """
    tail = list(values)[-width:]
    if not tail:
        return ""
    low = min(tail)
    high = max(tail)
    if high <= low:
        return SPARK_LEVELS[0] * len(tail)
    scale = (len(SPARK_LEVELS) - 1) / (high - low)
    return "".join(
        SPARK_LEVELS[int((value - low) * scale)] for value in tail
    )


class AsciiDashboard:
    """Render the live state of a :class:`~repro.core.system.DistributedJoinSystem`."""

    def __init__(self, system, stream: Optional[TextIO] = None) -> None:
        self.system = system
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = DASHBOARD_INTERVAL_S
        self.frames_rendered = 0
        self._last_render = 0.0
        self._last_tuples: Dict[int, int] = {}
        self._last_forwards: Dict[int, int] = {}

    # The hub calls this at every sampling tick; frames render at the
    # coarser dashboard cadence.
    def on_sample(self, now: float, registry) -> None:
        if self.frames_rendered and now - self._last_render < self.interval_s:
            return
        self.render(now, registry)

    def render(self, now: float, registry=None) -> None:
        """Write one frame for simulated time ``now``."""
        elapsed = max(now - self._last_render, 1e-9)
        system = self.system
        out: List[str] = []
        out.append("=" * 64)
        out.append(
            "repro dashboard  t=%8.2fs   events=%d  pending=%d"
            % (
                now,
                system.scheduler.events_processed,
                system.scheduler.pending,
            )
        )
        # The mode column appears only when overload protection is on, so
        # legacy (protection-off) frames stay byte-identical.
        show_modes = any(
            node.degradation_ladder is not None for node in system.nodes
        )
        header = "%-5s %9s %9s %6s %9s" % (
            "node",
            "tuples",
            "tuples/s",
            "queue",
            "busy_s",
        )
        if show_modes:
            header += " %-9s" % "mode"
        out.append(header + "  load")
        span = max(now, 1e-9)
        for node in system.nodes:
            previous = self._last_tuples.get(node.node_id, 0)
            rate = (node.tuples_processed - previous) / elapsed
            self._last_tuples[node.node_id] = node.tuples_processed
            row = "%-5d %9d %9.1f %6d %9.2f" % (
                node.node_id,
                node.tuples_processed,
                rate if self.frames_rendered else 0.0,
                node.service.queue_depth,
                node.busy_seconds,
            )
            if show_modes:
                ladder = node.degradation_ladder
                row += " %-9s" % (ladder.mode.value if ladder is not None else "-")
            out.append(row + "  " + _bar(node.busy_seconds / span))
        links = self._busiest_links(count=5)
        if links:
            out.append("%-9s %9s %11s %9s" % ("link", "msgs", "bytes", "backlog_s"))
            for (source, destination), messages, sent_bytes, backlog in links:
                out.append(
                    "%2d -> %-3d %9d %11d %9.3f"
                    % (source, destination, messages, sent_bytes, backlog)
                )
        stats = system.network.stats
        out.append(
            "traffic: %d msgs, %d bytes (%.1f%% summary), %d lost"
            % (
                stats.total_messages,
                stats.total_bytes,
                100.0 * stats.summary_overhead_fraction(),
                stats.messages_lost,
            )
        )
        dead_letters = sum(
            node.transport.delivery_failures
            for node in system.nodes
            if node.transport is not None
        )
        if dead_letters:
            out.append(
                "dead letters: %d reliable sends exhausted their retries"
                % dead_letters
            )
        machines = [
            node.recovery.machine
            for node in system.nodes
            if node.recovery is not None
        ]
        if machines:
            out.append(
                "recovery: "
                + "  ".join(
                    "%d:%s%s"
                    % (
                        machine.node_id,
                        machine.phase.value,
                        "(degraded)" if machine.degraded else "",
                    )
                    for machine in machines
                )
            )
        out.extend(self._spark_section(registry))
        self.stream.write("\n".join(out) + "\n")
        self._last_render = now
        self.frames_rendered += 1

    def _spark_section(self, registry) -> List[str]:
        """Sparkline strips from the registry's already-sampled series.

        No extra sampling happens here: the hub's regular ticks filled
        each instrument's :class:`~repro.telemetry.registry.TimeSeries`,
        and the dashboard just draws the tail of the ring.
        """
        if registry is None:
            return []
        rows: List[str] = []
        for name in SPARK_METRICS:
            for instrument in registry.instruments():
                if instrument.name != name or instrument.series is None:
                    continue
                if len(instrument.series) < 2:
                    continue
                values = [value for _, value in instrument.series]
                labels = format_labels(instrument.labels)
                rows.append(
                    "%-36s %10.3g |%s|"
                    % (
                        name.replace("repro_", "")
                        + (("{%s}" % labels) if labels else ""),
                        values[-1],
                        sparkline(values),
                    )
                )
                if len(rows) >= SPARK_ROWS:
                    return ["sparklines (series tail, low->high)"] + rows
        if not rows:
            return []
        return ["sparklines (series tail, low->high)"] + rows

    def _busiest_links(
        self, count: int
    ) -> List[Tuple[Tuple[int, int], int, int, float]]:
        rows = [
            (pair, link.messages_sent, link.bytes_sent, link.queue_depth_seconds())
            for pair, link in self.system.network.iter_links()
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows[:count]
