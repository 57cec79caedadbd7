"""The textbook transforms, kept as the tests' oracle.

``dft_direct`` (the O(W^2) evaluation of Equation 2) and ``inverse_dft``
(Equation 3) were ``repro.dft.transform``; no run calls them -- the
sliding DFT recomputes with ``np.fft.fft`` and Table 1's full-DFT column
times ``np.fft.fft`` -- so they live here, moved verbatim, as the
independent reference the FFT convention and the sliding DFT are held to.

Convention (shared by every module of ``repro.dft``)::

    X[k] = sum_{n=0}^{W-1} x[n] * exp(-2j*pi*k*n / W)          (Eq. 2)
    x[n] = (1/W) * sum_{k=0}^{W-1} X[k] * exp(+2j*pi*k*n / W)  (Eq. 3)

i.e. the unnormalized forward transform of numpy.
"""

import numpy as np

from repro.errors import SummaryError


def _as_signal(x) -> np.ndarray:
    signal = np.asarray(x, dtype=np.float64)
    if signal.ndim != 1:
        raise SummaryError("DFT input must be one-dimensional")
    if signal.size == 0:
        raise SummaryError("DFT input must be non-empty")
    return signal


def dft_direct(x) -> np.ndarray:
    """O(W^2) direct evaluation of the forward DFT (reference/Table 1).

    Evaluated row by row (one dot product per coefficient) rather than as a
    single W-by-W matrix product, so memory stays O(W) and the arithmetic
    cost is the genuine quadratic cost the paper's Table 1 measures.
    """
    signal = _as_signal(x)
    w = signal.size
    n = np.arange(w)
    coefficients = np.empty(w, dtype=np.complex128)
    base = -2j * np.pi / w
    for k in range(w):
        coefficients[k] = np.dot(signal, np.exp(base * k * n))
    return coefficients


def inverse_dft(coefficients) -> np.ndarray:
    """Inverse DFT returning the (complex) time-domain signal (Eq. 3)."""
    spectrum = np.asarray(coefficients, dtype=np.complex128)
    if spectrum.ndim != 1 or spectrum.size == 0:
        raise SummaryError("inverse DFT input must be a non-empty 1-D array")
    return np.fft.ifft(spectrum)
