"""Unit tests for the synthetic workload generators."""


import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.streams.generators import uniform_stream, zipf_stream, zipf_weights


def take(stream, count):
    """The next ``count`` keys of ``stream`` as an int64 array."""
    return np.fromiter(stream, dtype=np.int64, count=count)


def test_zipf_weights_normalized():
    weights = zipf_weights(1000, 0.4)
    assert weights.sum() == pytest.approx(1.0)
    assert (weights > 0).all()


def test_zipf_weights_monotone_decreasing():
    weights = zipf_weights(100, 0.4)
    assert (np.diff(weights) <= 0).all()


def test_zipf_alpha_zero_is_uniform():
    weights = zipf_weights(50, 0.0)
    assert np.allclose(weights, 1.0 / 50)


def test_zipf_weights_invalid_domain():
    with pytest.raises(ConfigurationError):
        zipf_weights(0, 0.4)


def test_uniform_stream_range_and_determinism():
    keys_a = take(uniform_stream(domain=100, rng=np.random.default_rng(3)), 500)
    keys_b = take(uniform_stream(domain=100, rng=np.random.default_rng(3)), 500)
    assert (keys_a >= 1).all() and (keys_a <= 100).all()
    assert np.array_equal(keys_a, keys_b)


def test_uniform_stream_covers_domain():
    keys = take(uniform_stream(domain=10, rng=np.random.default_rng(1)), 2000)
    assert set(np.unique(keys)) == set(range(1, 11))


def test_zipf_stream_head_is_heavier():
    keys = take(zipf_stream(domain=1000, alpha=0.9, rng=np.random.default_rng(2)), 5000)
    head = np.mean(keys <= 100)
    assert head > 0.2  # far above the uniform 10%


def test_zipf_permute_spreads_popularity():
    keys = take(
        zipf_stream(domain=1000, alpha=0.9, rng=np.random.default_rng(2), permute=True),
        5000,
    )
    # Popular keys no longer concentrated at small values.
    assert np.mean(keys <= 100) < 0.2


def test_zipf_stream_within_domain():
    keys = take(zipf_stream(domain=64, alpha=0.4, rng=np.random.default_rng(4)), 1000)
    assert keys.min() >= 1 and keys.max() <= 64
