"""Stream similarity from exchanged DFT coefficients (Section 5.2).

Node i must quantify, *without seeing node j's tuples*, how likely its
tuples are to join at node j.  Equations 4-8 derive the cross-correlation
of the two attribute signals from their DFTs; this module implements that
statistic plus two strictly-spectral refinements, all computable from the
same W/kappa exchanged coefficients:

``spectral_correlation_coefficient``
    The verbatim Equation 4 quantity: zero-lag cross-correlation over
    auto-covariance normalization, evaluated through the cross power
    spectrum (Parseval).  Meaningful when the two streams are temporally
    aligned (bursty or trending workloads).

``max_lag_correlation``
    The peak of the full normalized cross-correlation *function* -- the
    inverse transform of the cross power spectrum S_xy (Equation 8 carries
    all lags, not just zero).  Robust to arbitrary alignment offsets
    between the two windows.

``DISTRIBUTION`` (:func:`sorted_histograms`, :func:`histogram_cosines`)
    Cosine similarity of coarse value histograms built from the
    *reconstructed* windows (Section 5.3 reconstruction).  This tracks
    join selectivity directly -- two segments join a lot iff their
    attribute-value distributions overlap -- and is the default measure
    used by the DFT/DFTT policies.  (For streams with no temporal
    alignment, e.g. i.i.d. ZIPF draws, any lag-based statistic has
    expectation zero even when the value distributions coincide; the
    histogram form recovers the similarity the paper's correlation
    coefficient is intended to capture.)

All three return a value in [0, 1] where larger means "more likely to
join", the form the flow controller consumes.
"""

from __future__ import annotations

import enum
from typing import Dict, List

import numpy as np

from repro.dft.reconstruction import (
    CoefficientMap,
    expand_spectrum,
    reconstruct_values,
)
from repro.errors import SummaryError


class SimilarityMeasure(enum.Enum):
    """Which statistic the DFT policies derive p_ij from."""

    SPECTRAL = "spectral"
    MAX_LAG = "max_lag"
    DISTRIBUTION = "distribution"


def _shared_bins(
    x_map: Dict[int, complex], y_map: Dict[int, complex]
) -> np.ndarray:
    shared = sorted(set(x_map) & set(y_map))
    if not shared:
        raise SummaryError("coefficient maps share no bins")
    return np.asarray(shared, dtype=np.int64)


def _mirror_weights(bins: np.ndarray, window_size: int) -> np.ndarray:
    """Parseval weight per tracked bin.

    Tracked bins come from the non-redundant half of a real signal's
    spectrum; each bin k with a distinct mirror W-k implicitly contributes
    its conjugate term too, so it counts twice in spectral sums.  DC (k=0)
    and Nyquist (k=W/2, even W) have no distinct mirror.
    """
    weights = np.full(bins.size, 2.0)
    weights[bins == 0] = 1.0
    if window_size % 2 == 0:
        weights[bins == window_size // 2] = 1.0
    return weights


def spectral_correlation_coefficient(
    x_map: Dict[int, complex],
    y_map: Dict[int, complex],
    window_size: int,
    centered: bool = True,
) -> float:
    """Equation 4's rho from two (possibly truncated) coefficient maps.

    rho = sigma_xy / sqrt(sigma_x * sigma_y), with the cross- and
    auto-terms evaluated as Parseval sums over the shared bins.  With
    ``centered`` the DC bin is excluded, turning raw correlation into
    covariance (the paper's auto-covariance normalization).  The result is
    clipped into [0, 1]: anti-correlated segments are simply "dissimilar"
    for forwarding purposes.
    """
    if window_size < 1:
        raise SummaryError("window_size must be >= 1")
    bins = _shared_bins(x_map, y_map)
    if centered:
        bins = bins[bins != 0]
        if bins.size == 0:
            return 0.0
    x = np.asarray([x_map[int(k)] for k in bins], dtype=np.complex128)
    y = np.asarray([y_map[int(k)] for k in bins], dtype=np.complex128)
    weights = _mirror_weights(bins, window_size)
    cross = float(np.sum(weights * (x * np.conj(y)).real))
    x_auto = float(np.sum(weights * (x * np.conj(x)).real))
    y_auto = float(np.sum(weights * (y * np.conj(y)).real))
    if x_auto <= 0.0 or y_auto <= 0.0:
        return 0.0
    rho = cross / np.sqrt(x_auto * y_auto)
    return float(np.clip(rho, 0.0, 1.0))


def max_lag_correlation(
    x_map: Dict[int, complex],
    y_map: Dict[int, complex],
    window_size: int,
    centered: bool = True,
) -> float:
    """Peak of the normalized cross-correlation function over all lags.

    Computed as ifft(X * conj(Y)) over the shared (mirror-expanded) bins,
    normalized by the zero-lag auto terms.  Clipped into [0, 1].
    """
    if window_size < 1:
        raise SummaryError("window_size must be >= 1")
    bins = _shared_bins(x_map, y_map)
    x_kept = {int(k): x_map[int(k)] for k in bins}
    y_kept = {int(k): y_map[int(k)] for k in bins}
    if centered:
        x_kept.pop(0, None)
        y_kept.pop(0, None)
        if not x_kept or not y_kept:
            return 0.0
    x_full = expand_spectrum(x_kept, window_size)
    y_full = expand_spectrum(y_kept, window_size)
    cross_function = np.fft.ifft(x_full * np.conj(y_full)).real
    x_auto = float(np.sum(np.abs(x_full) ** 2)) / window_size
    y_auto = float(np.sum(np.abs(y_full) ** 2)) / window_size
    if x_auto <= 0.0 or y_auto <= 0.0:
        return 0.0
    peak = float(np.max(cross_function)) / np.sqrt(x_auto * y_auto)
    return float(np.clip(peak, 0.0, 1.0))


DISTRIBUTION_BINS = 64
"""Value bins of the ``DISTRIBUTION`` measure's histograms."""


def histogram_edges(domain: int, num_bins: int = DISTRIBUTION_BINS) -> np.ndarray:
    """The ``num_bins + 1`` edges of equal-width value bins over ``[1, domain]``.

    The top edge is ``domain + 1`` so every integer key falls strictly
    inside a bin.  A caller that buckets many windows builds these once.
    """
    if domain < 1:
        raise SummaryError("domain must be >= 1")
    if num_bins < 1:
        raise SummaryError("num_bins must be >= 1")
    return np.linspace(1, domain + 1, num_bins + 1)


def histogram_cosines(histogram: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Cosine similarity of ``histogram`` to every row of ``stack``.

    ``stack`` is (rows x bins).  A cosine is 0 where either side is all
    zero.  Histogram counts are integers, so the dot products and squared
    norms are exact whatever order they are summed in: the batched form
    returns, row for row, the floats the pairwise form does.
    """
    norms = np.sqrt(histogram @ histogram) * np.sqrt((stack * stack).sum(axis=1))
    cosines = np.zeros(stack.shape[0])
    np.divide(stack @ histogram, norms, out=cosines, where=norms > 0.0)
    return np.clip(cosines, 0.0, 1.0)


def histogram_search_edges(edges: np.ndarray) -> np.ndarray:
    """The edges :func:`sorted_histograms` looks up in a sorted row.

    A value is bucketed clamped into ``[edges[0], edges[-1] - 1]`` (the
    outer edges carry the domain, so ringing outside ``[1, domain]``
    counts in the outer bins).  A clamped value lies below an edge inside
    that range exactly when the unclamped value does; it never lies below
    an edge at or under the bottom of the range (searched as ``-inf``)
    and always lies below an edge above its top (searched as ``+inf``).
    """
    search = edges.copy()
    search[edges <= edges[0]] = -np.inf
    search[edges > edges[-1] - 1] = np.inf
    return search


def sorted_histograms(rows: np.ndarray, search_edges: np.ndarray) -> np.ndarray:
    """The value histogram of every ascending row of ``rows``, from one
    ``searchsorted`` of the edges into each row.

    Bin ``i`` holds the clamped values with ``edges[i] <= v <
    edges[i + 1]``: those below edge ``i + 1`` less those below edge
    ``i``.  That is the bin ``np.histogram(clamped, bins, range=(1,
    domain + 1))`` resolves a value to, and the counts are the same
    floats whatever order the values came in.
    """
    below = np.empty((rows.shape[0], search_edges.size), dtype=np.int64)
    for row, values in zip(below, rows):
        row[:] = np.searchsorted(values, search_edges)
    return (below[:, 1:] - below[:, :-1]).astype(np.float64)


def sorted_reconstructions(maps: List[CoefficientMap], window_size: int) -> np.ndarray:
    """The windows rebuilt from ``maps`` (one row each, from one batched
    truncated inverse DFT), every row sorted ascending."""
    rows = reconstruct_values(maps, window_size, round_to_int=False)
    rows.sort(axis=1)
    return rows


def similarity(
    measure: SimilarityMeasure,
    x_map: Dict[int, complex],
    y_map: Dict[int, complex],
    window_size: int,
) -> float:
    """Dispatch on a lag-based :class:`SimilarityMeasure` (policy entry
    point).  ``DISTRIBUTION`` is not taken here: the DFT policy reads it
    for every peer at once from its slot table (:func:`sorted_histograms`,
    :func:`histogram_cosines`)."""
    if measure is SimilarityMeasure.SPECTRAL:
        return spectral_correlation_coefficient(x_map, y_map, window_size)
    if measure is SimilarityMeasure.MAX_LAG:
        return max_lag_correlation(x_map, y_map, window_size)
    raise SummaryError("%s similarity is read from the slot table" % measure.value)
