"""The pre-PR-19 pairwise forwarding decision, kept as the tests' oracle.

Until PR 19 ``DftPolicy.peer_similarities`` called
``distribution_similarity`` once per peer per rebuild, and
``DfttPolicy.join_estimate`` did two scalar ``searchsorted`` calls per
peer per tuple; both re-derived everything from the coefficient maps on
every call.  The bodies below are those functions moved here verbatim
(only ``self``/table plumbing removed), so the batched, per-slot-cached
path under ``src/`` can be held to them float for float.
"""

from typing import Dict, Optional

import numpy as np

from repro.dft.reconstruction import reconstruct_values
from repro.errors import SummaryError


def reference_distribution_similarity(
    x_map: Dict[int, complex],
    y_map: Dict[int, complex],
    window_size: int,
    domain: int,
    num_bins: int = 64,
) -> float:
    """``core.correlation.distribution_similarity`` as of PR 17."""
    if domain < 1:
        raise SummaryError("domain must be >= 1")
    if num_bins < 1:
        raise SummaryError("num_bins must be >= 1")
    histograms = []
    for coefficient_map in (x_map, y_map):
        values = reconstruct_values(coefficient_map, window_size, round_to_int=False)
        clamped = np.clip(values, 1, domain)
        histogram, _ = np.histogram(clamped, bins=num_bins, range=(1, domain + 1))
        histograms.append(histogram.astype(np.float64))
    x_hist, y_hist = histograms
    x_norm = np.linalg.norm(x_hist)
    y_norm = np.linalg.norm(y_hist)
    if x_norm == 0.0 or y_norm == 0.0:
        return 0.0
    return float(np.clip(np.dot(x_hist, y_hist) / (x_norm * y_norm), 0.0, 1.0))


def reference_join_estimate(
    coefficient_map: Optional[Dict[int, complex]],
    window_size: int,
    key: int,
    tolerance: float,
) -> Optional[int]:
    """``DfttPolicy.reconstructed_window`` + ``join_estimate`` as of PR 17."""
    if coefficient_map is None:
        return None
    values = reconstruct_values(coefficient_map, window_size, round_to_int=False)
    window = np.sort(values)
    low = np.searchsorted(window, key - tolerance, side="left")
    high = np.searchsorted(window, key + tolerance, side="right")
    return int(high - low)
