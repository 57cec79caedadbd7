"""Discrete Fourier transform substrate (Section 4, 5.2.1, 5.3).

* :mod:`repro.dft.transform` -- direct (O(W^2)) and FFT-backed DFTs with a
  single shared sign/normalization convention, plus the inverse transform.
* :mod:`repro.dft.sliding` -- the incremental (sliding) DFT: O(1) work per
  tracked coefficient per arriving tuple, with drift accounting and
  periodic full recomputation.
* :mod:`repro.dft.control` -- the recomputation control vector (after
  Winograd & Nawab [28]): trades arithmetic cost against the probability
  that the approximate coefficients stay within a drift bound.
* :mod:`repro.dft.spectrum` -- power-spectrum and cross-power-spectrum
  estimation in O(W) from FFTs (Section 5.2.1).
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
from repro.dft.spectrum import cross_power_spectrum, periodogram
from repro.dft.transform import dft, dft_direct, inverse_dft

__all__ = [
    "dft",
    "dft_direct",
    "inverse_dft",
    "SlidingDFT",
    "low_frequency_bins",
    "ControlVector",
    "cross_power_spectrum",
    "periodogram",
    "TruncationMode",
    "compress_spectrum",
    "expand_spectrum",
    "reconstruct_values",
    "reconstruction_squared_errors",
]
