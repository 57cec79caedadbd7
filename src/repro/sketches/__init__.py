"""AGMS ("tug-of-war") sketches for join-size estimation.

Re-implementation of Alon, Gibbons, Matias & Szegedy [1], the summary
behind the paper's SKCH baseline: each node sketches the frequency vector
of its window's joining attributes; the inner product of two sketches
estimates the join size between the corresponding window segments.

* :mod:`repro.sketches.hashing` -- 4-wise independent +/-1 hash families
  (cubic polynomials over a prime field).
* :mod:`repro.sketches.agms` -- the sketch itself, with median-of-means
  estimation and sliding-window deletions.
"""

from repro.sketches.agms import AgmsSketch, SketchShape
from repro.sketches.hashing import FourWiseHashFamily

__all__ = [
    "AgmsSketch",
    "SketchShape",
    "FourWiseHashFamily",
]
