"""Incremental (sliding) DFT.

The summary maintained here is the DFT of the window's *circular buffer*:
sample positions are fixed slots ``0..W-1`` and an arriving tuple
overwrites the oldest slot ``p``.  Each tracked coefficient then updates
in O(1)::

    X_k  +=  (x_new - x_old) * exp(-2j*pi*k*p / W)

This "anchored" formulation is a phase rotation away from the
chronologically-indexed window DFT (time-shift property), so coefficient
*magnitudes*, power spectra, and the reconstructed value multiset are
identical -- everything Sections 5.2/5.3 consume.  Its decisive advantage
for the distributed protocol is that coefficients change **only in
proportion to the content that actually changed**: a window that turned
over k samples since the last broadcast perturbs each coefficient by the
k sample deltas, not by a wholesale phase rotation.  That is what makes
Figure 7's "extract the coefficients that changed" delta suppression
effective (and Figure 8's overhead small).

Tracking only the K = W/kappa lowest-frequency bins makes each tuple cost
O(K) regardless of W -- this is the "iDFT" column of Table 1.  Because
the joining-attribute signal is real, every untracked conjugate bin
X[W - k] = conj(X[k]) is implied for free, so transmitting K coefficients
conveys nearly 2K bins (Section 5.3's compression arithmetic).

Floating-point drift accrues on the order of 1e-16 per update per
coefficient (the paper cites [4] for the same bound), so the window is
fully recomputed at the cadence prescribed by a
:class:`~repro.dft.control.ControlVector`.

Fast paths
----------

The per-slot phase rows ``exp(-2j*pi*k*p/W)`` depend only on the slot
``p``, never on the data, so they are never evaluated per tuple.  Two
evaluation modes, worked out from ``W x K`` at construction:

``table``
    Precompute the full ``W x K`` twiddle table once.  Chosen when
    ``W * K <= TWIDDLE_TABLE_MAX_ENTRIES`` (32 MiB of complex128 at the
    default cap).  The table is produced by the same vectorized
    ``np.exp`` a per-update evaluation would run, so coefficients are
    bit-identical to that formulation (kept as the test oracle in
    ``tests/reference_kernels.py``).

``rotation``
    When the table would exceed the cap, keep only the current phase row
    and advance it by an elementwise multiply with the constant one-slot
    rotation ``exp(-2j*pi*k/W)``, resetting exactly to ones at slot-0
    wraparound so accumulated phase error never exceeds one window's
    worth (well under the control vector's drift budget).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.dft.control import ControlVector
from repro.errors import SummaryError

TWIDDLE_TABLE_MAX_ENTRIES = 1 << 21
"""Twiddle tables above this many complex entries (32 MiB) fall back to
the constant-rotation mode."""


def low_frequency_bins(window_size: int, count: int) -> np.ndarray:
    """The ``count`` lowest-frequency bin indices: 0, 1, ..., count - 1.

    Bin 0 is the DC term (window sum); bin k oscillates k times per window.
    ``count`` is clamped to the number of non-redundant bins of a real
    signal (W//2 + 1); beyond that the conjugate symmetry makes extra bins
    pure redundancy.
    """
    if window_size < 1:
        raise SummaryError("window_size must be >= 1")
    if count < 1:
        raise SummaryError("must track at least one bin")
    limit = window_size // 2 + 1
    return np.arange(min(count, limit), dtype=np.int64)


class SlidingDFT:
    """Per-tuple incremental DFT over a count window of fixed size.

    Until the window first fills, slots are written in order (the window
    is conceptually zero-padded to W); once full, each arrival overwrites
    the oldest slot, applying the O(1) anchored update above.

    ``mode`` records the phase-row evaluation strategy: ``"table"`` when
    the ``W x K`` twiddle table fits under
    :data:`TWIDDLE_TABLE_MAX_ENTRIES` and ``"rotation"`` otherwise.
    """

    def __init__(
        self,
        window_size: int,
        tracked_bins: Optional[Sequence[int]] = None,
        control: Optional[ControlVector] = None,
    ) -> None:
        if window_size < 1:
            raise SummaryError("window_size must be >= 1")
        self.window_size = window_size
        if tracked_bins is None:
            bins = np.arange(window_size, dtype=np.int64)
        else:
            bins = np.asarray(sorted(set(int(b) for b in tracked_bins)), dtype=np.int64)
            if bins.size == 0:
                raise SummaryError("tracked_bins must be non-empty")
            if bins.min() < 0 or bins.max() >= window_size:
                raise SummaryError("tracked bins must lie in [0, window_size)")
        self._bins = bins
        self._coefficients = np.zeros(bins.size, dtype=np.complex128)
        self._buffer = np.zeros(window_size, dtype=np.float64)
        self._position = 0
        self._filled = 0
        self._base_angle = -2j * np.pi * bins / window_size
        self.mode = (
            "table"
            if window_size * bins.size <= TWIDDLE_TABLE_MAX_ENTRIES
            else "rotation"
        )
        self._twiddles: Optional[np.ndarray] = None
        self._rotation: Optional[np.ndarray] = None
        self._phase: Optional[np.ndarray] = None
        if self.mode == "table":
            # One vectorized exp over the full W x K grid; row p equals
            # exp(base_angle * p) bit-for-bit, i.e. exactly the phase row
            # the per-update path would have produced.
            self._twiddles = np.exp(
                self._base_angle[None, :]
                * np.arange(window_size, dtype=np.int64)[:, None]
            )
        else:
            self._rotation = np.exp(self._base_angle)
            self._phase = np.ones(bins.size, dtype=np.complex128)
        self.control = control if control is not None else ControlVector.default(window_size)
        self.updates_since_recompute = 0
        self.total_updates = 0
        self.full_recomputes = 0

    # ------------------------------------------------------------------
    # phase rows
    # ------------------------------------------------------------------

    def _current_phase_row(self) -> np.ndarray:
        """Phase row for the current slot (do not mutate)."""
        if self.mode == "table":
            return self._twiddles[self._position]
        return self._phase

    def _advance_position(self) -> None:
        """Move to the next slot, maintaining the rotation-mode phase row."""
        self._position = (self._position + 1) % self.window_size
        if self.mode == "rotation":
            if self._position == 0:
                # Exact reset at wraparound: slot 0's row is exp(0) = 1.
                self._phase = np.ones(self._bins.size, dtype=np.complex128)
            else:
                self._phase = self._phase * self._rotation

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        """Write one sample into the circular buffer; update tracked bins."""
        value = float(value)
        old = self._buffer[self._position]
        self._coefficients += (value - old) * self._current_phase_row()
        self._buffer[self._position] = value
        self._advance_position()
        if self._filled < self.window_size:
            self._filled += 1
        self.total_updates += 1
        self.updates_since_recompute += 1
        if self.control.should_recompute(self.updates_since_recompute):
            self.recompute()

    def extend(self, values) -> None:
        """Apply a batch of samples, one :meth:`update` each."""
        for value in values:
            self.update(value)

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> Dict[str, object]:
        """Bit-exact snapshot of the mutable state (see repro.recovery).

        The rotation-mode phase row is part of the state: it is a product
        of ``position`` rotations and cannot be recomputed bit-identically,
        so it must be carried verbatim for restore to reproduce the exact
        coefficient trajectory.
        """
        from repro.recovery.checkpoint import encode_array

        state: Dict[str, object] = {
            "window_size": self.window_size,
            "buffer": encode_array(self._buffer),
            "coefficients": encode_array(self._coefficients),
            "position": self._position,
            "filled": self._filled,
            "updates_since_recompute": self.updates_since_recompute,
            "total_updates": self.total_updates,
            "full_recomputes": self.full_recomputes,
        }
        if self.mode == "rotation":
            state["phase"] = encode_array(self._phase)
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`checkpoint_state` on a same-config instance."""
        from repro.recovery.checkpoint import decode_array

        if int(state["window_size"]) != self.window_size:
            raise SummaryError(
                "checkpoint window size %s does not match %d"
                % (state["window_size"], self.window_size)
            )
        self._buffer = decode_array(state["buffer"])
        self._coefficients = decode_array(state["coefficients"])
        self._position = int(state["position"])
        self._filled = int(state["filled"])
        self.updates_since_recompute = int(state["updates_since_recompute"])
        self.total_updates = int(state["total_updates"])
        self.full_recomputes = int(state["full_recomputes"])
        if self.mode == "rotation":
            self._phase = decode_array(state["phase"])

    def recompute(self) -> None:
        """Exact recomputation of the tracked bins from the stored buffer.

        This is the periodic drift reset the control vector schedules; it
        costs one FFT (O(W log W)) amortized over the recompute interval.
        """
        spectrum = np.fft.fft(self._buffer)
        self._coefficients = spectrum[self._bins]
        self.updates_since_recompute = 0
        self.full_recomputes += 1

    def coefficient_view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(bins, coefficients)`` view for internal callers.

        Both arrays are the live state: treat them as read-only and do
        not hold them across further updates (updates mutate the
        coefficient array; recomputation replaces it).
        """
        return self._bins, self._coefficients

    def coefficient_map(self) -> Dict[int, complex]:
        """``{bin_index: coefficient}`` for the tracked bins."""
        return {int(k): complex(c) for k, c in zip(self._bins, self._coefficients)}

    def buffer_values(self) -> np.ndarray:
        """The raw sample buffer in *slot* order (copy).

        This is the sequence whose DFT the coefficients are: the
        reconstruction of :func:`repro.dft.reconstruction.reconstruct_values`
        aligns with it position-by-position.  While the window is still
        filling, only the written slots are returned.
        """
        if self._filled < self.window_size:
            return self._buffer[: self._filled].copy()
        return self._buffer.copy()
