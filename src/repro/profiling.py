"""Per-kernel profiling: wall/CPU timers and a cProfile convenience.

The hot-path kernels (sliding-DFT maintenance, sketch updates, node
service loops) are cheap enough per call that ad-hoc ``time.time()``
instrumentation drowns in its own overhead.  This module provides:

* :class:`KernelTimer` -- accumulated wall and CPU seconds, call and item
  counts, for one named kernel;
* :class:`KernelProfiler` -- a registry of timers with a context-manager
  :meth:`~KernelProfiler.section` entry point.  A profiler is threaded
  through :class:`~repro.core.system.DistributedJoinSystem` (and from
  there into every node's service loop) when the caller asks for one;
  the default is ``None`` everywhere, so unprofiled runs pay nothing;
* :func:`profile_call` -- run a callable under :mod:`cProfile` and
  render the top-N cumulative entries (the CLI's ``--profile`` flag).

Timer snapshots land in :attr:`repro.core.results.RunResult.profile` so
experiment harnesses (Table 1, the microbenchmarks) can attribute run
time to kernels without re-instrumenting.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Tuple


@dataclass
class KernelTimer:
    """Accumulated cost of one named kernel."""

    name: str
    calls: int = 0
    items: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0

    def add(self, wall: float, cpu: float, items: int = 1) -> None:
        self.calls += 1
        self.items += items
        self.wall_seconds += wall
        self.cpu_seconds += cpu

    @property
    def items_per_second(self) -> float:
        """Throughput in items per wall second (0 when nothing ran)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.items / self.wall_seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": float(self.calls),
            "items": float(self.items),
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "items_per_second": self.items_per_second,
        }


class KernelProfiler:
    """Registry of :class:`KernelTimer` sections.

    The profiler is deliberately not global: callers that want accounting
    construct one and pass it down.  ``section`` nests safely (each
    section measures its own wall/CPU interval; nested sections are
    *inclusive*, like cProfile's cumulative column).
    """

    def __init__(self) -> None:
        self._timers: Dict[str, KernelTimer] = {}

    def timer(self, name: str) -> KernelTimer:
        timer = self._timers.get(name)
        if timer is None:
            timer = KernelTimer(name)
            self._timers[name] = timer
        return timer

    @contextmanager
    def section(self, name: str, items: int = 1) -> Iterator[KernelTimer]:
        """Time one kernel invocation covering ``items`` work units."""
        timer = self.timer(name)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield timer
        finally:
            timer.add(time.perf_counter() - wall0, time.process_time() - cpu0, items)

    def record(self, name: str, wall: float, cpu: float, items: int = 1) -> None:
        """Account an externally-measured interval to ``name``."""
        self.timer(name).add(wall, cpu, items)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-kernel accounting as plain floats (JSON-friendly)."""
        return {name: timer.as_dict() for name, timer in sorted(self._timers.items())}

    def format(self) -> str:
        """Fixed-width table of the accumulated sections."""
        lines = [
            "%-28s %10s %12s %12s %12s %14s"
            % ("kernel", "calls", "items", "wall (s)", "cpu (s)", "items/s")
        ]
        for name, timer in sorted(self._timers.items()):
            lines.append(
                "%-28s %10d %12d %12.6f %12.6f %14.1f"
                % (
                    name,
                    timer.calls,
                    timer.items,
                    timer.wall_seconds,
                    timer.cpu_seconds,
                    timer.items_per_second,
                )
            )
        return "\n".join(lines)


@dataclass
class Stopwatch:
    """Paired wall/CPU interval measurement for benchmark loops."""

    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    _wall0: float = field(default=0.0, repr=False)
    _cpu0: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Stopwatch":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_seconds = time.perf_counter() - self._wall0
        self.cpu_seconds = time.process_time() - self._cpu0


def profile_call(
    fn: Callable[[], Any], top: int = 20, sort: str = "cumulative"
) -> Tuple[Any, str]:
    """Run ``fn`` under cProfile; return its result and a top-N report."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return result, buffer.getvalue()
