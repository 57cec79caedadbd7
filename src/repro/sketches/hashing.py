"""Four-wise independent hash families.

AGMS sketches need +/-1 random variables that are 4-wise independent for
the variance bound of [1] to hold.  The classic construction is a degree-3
polynomial over a prime field::

    h(x) = a3*x^3 + a2*x^2 + a1*x + a0   (mod p)
    xi(x) = +1 if h(x) is odd else -1

Evaluation uses Horner's rule so every intermediate product of two values
below ``p = 2**31 - 1`` fits comfortably in int64, which lets a whole bank
of hash rows evaluate in a handful of vectorized numpy operations per
update.

Because sliding windows evict exactly the keys they inserted, the same
key is hashed at least twice (arrival and eviction) and usually many more
times under skew, so the family keeps a small LRU cache of sign vectors:
a hit replaces the three modular Horner steps with one dict lookup.  The
cache is capacity-bounded (:data:`DEFAULT_SIGN_CACHE_SIZE` entries).
Cached vectors are produced by the identical arithmetic, so hits and
misses are bit-indistinguishable; the uncached family the tests compare
against is ``tests/reference_kernels.py``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro._rng import ensure_rng
from repro.errors import SummaryError

MERSENNE_PRIME_31 = (1 << 31) - 1
"""Field modulus; keys and coefficients live in [0, p)."""

DEFAULT_SIGN_CACHE_SIZE = 4096
"""Per-family LRU capacity: int8 sign vectors, so a full cache of a
1000-row bank costs ~4 MB."""


class FourWiseHashFamily:
    """A bank of independent degree-3 polynomial hash rows."""

    def __init__(
        self,
        rows: int,
        rng=None,
        prime: int = MERSENNE_PRIME_31,
    ) -> None:
        if rows < 1:
            raise SummaryError("need at least one hash row")
        if prime < 3:
            raise SummaryError("prime must be >= 3")
        self.rows = rows
        self.prime = prime
        generator = ensure_rng(rng)
        # Shape (rows, 4): highest-degree coefficient first (Horner order).
        self._coefficients = generator.integers(0, prime, size=(rows, 4), dtype=np.int64)
        self._sign_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    def raw(self, key: int) -> np.ndarray:
        """Polynomial value per row, in ``[0, prime)``."""
        x = int(key) % self.prime
        acc = self._coefficients[:, 0].copy()
        for degree in range(1, 4):
            acc = (acc * x + self._coefficients[:, degree]) % self.prime
        return acc

    def signs(self, key: int) -> np.ndarray:
        """The +/-1 variable xi(key) per row (int8 array of +-1).

        The returned array is read-only (it is the LRU cache's entry);
        copy before mutating.
        """
        key = int(key)
        cached = self._sign_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._sign_cache.move_to_end(key)
            return cached
        vector = np.where(self.raw(key) & 1, 1, -1).astype(np.int8)
        self.cache_misses += 1
        vector.flags.writeable = False
        self._sign_cache[key] = vector
        if len(self._sign_cache) > DEFAULT_SIGN_CACHE_SIZE:
            self._sign_cache.popitem(last=False)
        return vector
