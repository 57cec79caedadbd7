"""Unit tests for 4-wise independent hashing."""

import numpy as np
import pytest

from repro.errors import SummaryError
from repro.sketches.hashing import MERSENNE_PRIME_31, FourWiseHashFamily


def test_rows_validated():
    with pytest.raises(SummaryError):
        FourWiseHashFamily(0)
    with pytest.raises(SummaryError):
        FourWiseHashFamily(4, prime=2)


def test_raw_values_in_field():
    family = FourWiseHashFamily(16, rng=np.random.default_rng(0))
    for key in (0, 1, 12345, MERSENNE_PRIME_31 - 1, MERSENNE_PRIME_31 + 5):
        raw = family.raw(key)
        assert raw.shape == (16,)
        assert (raw >= 0).all() and (raw < MERSENNE_PRIME_31).all()


def test_deterministic_per_key():
    family = FourWiseHashFamily(8, rng=np.random.default_rng(1))
    assert np.array_equal(family.raw(42), family.raw(42))
    assert np.array_equal(family.signs(42), family.signs(42))


def test_signs_are_plus_minus_one():
    family = FourWiseHashFamily(32, rng=np.random.default_rng(2))
    signs = family.signs(7)
    assert set(np.unique(signs)).issubset({-1, 1})


def test_signs_are_roughly_balanced():
    family = FourWiseHashFamily(64, rng=np.random.default_rng(3))
    total = sum(family.signs(key).sum() for key in range(200))
    # 12800 draws of +-1: the sum should be well inside 5 sigma.
    assert abs(total) < 5 * np.sqrt(200 * 64)


def test_pairwise_sign_products_are_unbiased():
    """4-wise independence implies E[xi(a) xi(b)] = 0 for a != b."""
    family = FourWiseHashFamily(256, rng=np.random.default_rng(4))
    a, b = family.signs(10).astype(int), family.signs(20).astype(int)
    assert abs(np.mean(a * b)) < 0.25


def test_different_rows_disagree():
    family = FourWiseHashFamily(64, rng=np.random.default_rng(6))
    raw = family.raw(5)
    assert len(np.unique(raw)) > 32  # rows are independent polynomials
