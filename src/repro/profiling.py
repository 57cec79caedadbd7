"""Wall/CPU interval timing and a cProfile convenience.

* :class:`Stopwatch` -- paired wall and CPU seconds of one interval, for
  benchmark loops (Table 1's DFT timings);
* :func:`profile_call` -- run a callable under :mod:`cProfile` and
  render the top-N cumulative entries (the CLI's ``--profile`` flag).
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Tuple


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
