"""The pre-optimization summary kernels, kept as the tests' oracles.

``ReferenceSlidingDFT`` evaluates the phase row ``exp(-2j*pi*k*p/W)``
fresh with ``np.exp`` on every :meth:`update`; ``ReferenceHashFamily``
evaluates every sign vector afresh, with no cache.  The table and
rotation paths and the LRU sign cache under ``src/`` are held to them
with ``==`` (``tests/property/test_kernel_equivalence.py``, system-level
in ``tests/integration/test_fastpath_determinism.py``) and timed against
them (``benchmarks/test_bench_kernels.py``).
"""

import numpy as np

from repro.dft.sliding import SlidingDFT
from repro.sketches.hashing import FourWiseHashFamily


class ReferenceSlidingDFT(SlidingDFT):
    """A ``SlidingDFT`` that computes each phase row from scratch."""

    def __init__(self, window_size, tracked_bins=None, control=None) -> None:
        super().__init__(window_size, tracked_bins=tracked_bins, control=control)
        self.mode = "naive"
        self._twiddles = self._rotation = self._phase = None

    def _current_phase_row(self) -> np.ndarray:
        return np.exp(self._base_angle * self._position)


class ReferenceHashFamily(FourWiseHashFamily):
    """A ``FourWiseHashFamily`` that hashes every key on every call."""

    def signs(self, key: int) -> np.ndarray:
        return np.where(self.raw(key) & 1, 1, -1).astype(np.int8)
