"""The list-scan window probe and the generic count-window append, kept
as the tests' oracles.

Until windows kept a deque of keys beside their tuples, a probe read every
tuple's key in a Python comprehension.  ``reference_matches`` is that body
moved here verbatim, as a function of the window, so the ``deque.index``
probe under ``src/`` can be held to it element for element, with ``==``
and ``is``.

Until a count window evicted inside its own ``append``, it appended
through ``SlidingWindow.append``, which calls ``_enforce``, which evicted
through ``_evict_oldest`` into a swapped ``_evicted`` list.
``ReferenceCountWindow`` is that ``CountWindow``, its ``_enforce`` moved
here verbatim, so the inline append can be held to the generic path.
"""

from typing import List

from repro.streams.tuples import StreamTuple
from repro.streams.window import CountWindow, SlidingWindow


def reference_matches(self: SlidingWindow, key: int) -> List[StreamTuple]:
    """All window tuples whose key equals ``key`` (join probe)."""
    if self._key_counts[key] == 0:
        return []
    return [t for t in self._tuples if t.key == key]


class ReferenceCountWindow(CountWindow):
    """``CountWindow`` before its inline append: the generic path."""

    append = SlidingWindow.append

    def _enforce(self, newest: StreamTuple) -> None:
        while len(self._tuples) > self.capacity:
            self._evict_oldest()
