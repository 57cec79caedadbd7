"""Discrete Fourier transform substrate (Section 4, 5.2.1, 5.3).

Every module shares numpy's convention: the unnormalized forward
transform ``X[k] = sum_n x[n] exp(-2j pi k n / W)`` (Equation 2, indexed
from 0; the constant phase the paper's 1-based indexing adds cancels
wherever the coefficients are used) and ``np.fft.fft`` / ``np.fft.ifft``
for every full transform -- Table 1's "full DFT" column times
``np.fft.fft`` too.

* :mod:`repro.dft.sliding` -- the incremental (sliding) DFT: O(1) work per
  tracked coefficient per arriving tuple, with periodic full
  recomputation.
* :mod:`repro.dft.control` -- the recomputation control vector (after
  Winograd & Nawab [28]): trades arithmetic cost against the probability
  that the approximate coefficients stay within a drift bound.
* :mod:`repro.dft.reconstruction` -- truncated-inverse-DFT reconstruction
  of remote attribute values from W/kappa coefficients (Section 5.3,
  Equation 10), with integer round-off.
"""

from repro.dft.control import ControlVector
from repro.dft.reconstruction import (
    TruncationMode,
    compress_spectrum,
    expand_spectrum,
    reconstruct_values,
    reconstruction_squared_errors,
)
from repro.dft.sliding import SlidingDFT, low_frequency_bins

__all__ = [
    "SlidingDFT",
    "low_frequency_bins",
    "ControlVector",
    "TruncationMode",
    "compress_spectrum",
    "expand_spectrum",
    "reconstruct_values",
    "reconstruction_squared_errors",
]
