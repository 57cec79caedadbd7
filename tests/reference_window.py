"""The list-scan window probe and key-multiset reads, kept as the tests'
oracle.

Until windows kept a deque of keys beside their tuples, a probe read every
tuple's key in a Python comprehension, and the multiset reads went through
``Counter.__missing__``.  The bodies below are those moved here verbatim,
as functions of the window, so the ``deque.index`` probe under ``src/``
can be held to them element for element, with ``==`` and ``is``.
"""

from typing import List

from repro.streams.tuples import StreamTuple
from repro.streams.window import SlidingWindow


def reference_contains(self: SlidingWindow, key: int) -> bool:
    return self._key_counts[key] > 0


def reference_count(self: SlidingWindow, key: int) -> int:
    """Number of tuples in the window with the given joining attribute."""
    return self._key_counts[key]


def reference_matches(self: SlidingWindow, key: int) -> List[StreamTuple]:
    """All window tuples whose key equals ``key`` (join probe)."""
    if self._key_counts[key] == 0:
        return []
    return [t for t in self._tuples if t.key == key]
