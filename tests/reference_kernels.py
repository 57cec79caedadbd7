"""The pre-optimization sliding DFT, kept as the tests' oracle.

The phase row ``exp(-2j*pi*k*p/W)`` is evaluated fresh with ``np.exp`` on
every :meth:`update`, and :meth:`extend` is a scalar loop over
``update``.  The table and rotation paths under ``src/`` are held to it
with ``==`` (``tests/property/test_kernel_equivalence.py``, system-level
in ``tests/integration/test_fastpath_determinism.py``) and timed against
it (``benchmarks/test_bench_kernels.py``).

The sketch kernels need no class: their reference is
``FourWiseHashFamily(..., cache_size=0)``.
"""

import numpy as np

from repro.dft.sliding import SlidingDFT


class ReferenceSlidingDFT(SlidingDFT):
    """A ``SlidingDFT`` that computes each phase row from scratch."""

    def __init__(self, window_size, tracked_bins=None, control=None) -> None:
        super().__init__(window_size, tracked_bins=tracked_bins, control=control)
        self.mode = "naive"
        self._twiddles = self._rotation = self._phase = None

    def _current_phase_row(self) -> np.ndarray:
        return np.exp(self._base_angle * self._position)

    def extend(self, values) -> None:
        for value in values:
            self.update(value)
