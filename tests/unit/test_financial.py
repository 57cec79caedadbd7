"""Unit tests for the synthetic FIN workload."""

import itertools

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.streams.financial import (
    FinancialStreamConfig,
    financial_stream,
)


def _prices(count=4000, seed=11, **kwargs):
    config = FinancialStreamConfig(**kwargs) if kwargs else FinancialStreamConfig()
    stream = financial_stream(config, rng=np.random.default_rng(seed))
    return np.fromiter(itertools.islice(stream, count), dtype=np.float64)


def test_prices_stay_in_bounds():
    prices = _prices(min_price=100, max_price=200, initial_price=150, tick_std=30.0)
    assert prices.min() >= 100
    assert prices.max() <= 200


def test_prices_are_integers():
    config = FinancialStreamConfig()
    stream = financial_stream(config, rng=np.random.default_rng(0))
    for value in itertools.islice(stream, 100):
        assert isinstance(value, int)


def test_prices_are_strongly_autocorrelated():
    prices = _prices()
    centered = prices - prices.mean()
    lag1 = np.corrcoef(centered[:-1], centered[1:])[0, 1]
    assert lag1 > 0.95  # random walk: near-unit lag-1 autocorrelation


def test_low_frequency_energy_dominates():
    """The property Figures 5/6 rely on: spectral energy concentrates low."""
    prices = _prices(count=4096)
    spectrum = np.fft.fft(prices - prices.mean())
    energy = np.abs(spectrum) ** 2
    half = energy[1 : len(energy) // 2]
    low = half[: len(half) // 16].sum()
    assert low / half.sum() > 0.8


def test_config_validation():
    with pytest.raises(ConfigurationError):
        FinancialStreamConfig(initial_price=0).validate()
    with pytest.raises(ConfigurationError):
        FinancialStreamConfig(tick_std=0).validate()
    with pytest.raises(ConfigurationError):
        FinancialStreamConfig(mean_reversion=2.0).validate()
    with pytest.raises(ConfigurationError):
        FinancialStreamConfig(burst_probability=1.5).validate()


def test_determinism():
    assert np.array_equal(_prices(seed=42), _prices(seed=42))
