"""The list-scan window probe, kept as the tests' oracle.

Until windows kept a deque of keys beside their tuples, a probe read every
tuple's key in a Python comprehension.  The body below is that one moved
here verbatim, as a function of the window, so the ``deque.index`` probe
under ``src/`` can be held to it element for element, with ``==`` and
``is``.
"""

from typing import List

from repro.streams.tuples import StreamTuple
from repro.streams.window import SlidingWindow


def reference_matches(self: SlidingWindow, key: int) -> List[StreamTuple]:
    """All window tuples whose key equals ``key`` (join probe)."""
    if self._key_counts[key] == 0:
        return []
    return [t for t in self._tuples if t.key == key]
