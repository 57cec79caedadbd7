"""Synthetic FIN workload.

The paper's FIN data set -- 1.8 M real buy/sell trades -- is not
retrievable, so we synthesize a stream with the statistical features the
DFT experiments rely on (Figures 5 and 6 reconstruct a "sample stock data
stream"):

* the joining attribute is an integer *price* following a bounded,
  mean-reverting random walk, which makes the key sequence a smooth,
  strongly autocorrelated signal whose energy concentrates in low DFT
  frequencies (this is why truncating to W/256 coefficients is near
  lossless on stock data);
* trade sizes and sides are attached as payload but do not join.

The paper reports the real workloads behaved like ZIPF(alpha=0.4); the
random walk additionally visits popular price levels far more often than
the tails, giving a heavy-tailed marginal distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro._rng import ensure_rng
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FinancialStreamConfig:
    """Parameters of the synthetic trade stream."""

    initial_price: int = 40_000
    min_price: int = 1
    max_price: int = 2**19
    tick_std: float = 12.0
    mean_reversion: float = 0.002
    burst_probability: float = 0.01
    burst_scale: float = 8.0

    def validate(self) -> None:
        if not self.min_price <= self.initial_price <= self.max_price:
            raise ConfigurationError("initial price outside [min, max]")
        if self.tick_std <= 0:
            raise ConfigurationError("tick_std must be positive")
        if not 0 <= self.mean_reversion <= 1:
            raise ConfigurationError("mean_reversion must lie in [0, 1]")
        if not 0 <= self.burst_probability <= 1:
            raise ConfigurationError("burst_probability must lie in [0, 1]")


def financial_stream(
    config: FinancialStreamConfig = FinancialStreamConfig(),
    rng=None,
) -> Iterator[int]:
    """Endless stream of integer trade prices (the joining attribute)."""
    config.validate()
    generator = ensure_rng(rng)
    price = float(config.initial_price)
    anchor = float(config.initial_price)
    while True:
        step = generator.normal(0.0, config.tick_std)
        if generator.random() < config.burst_probability:
            step *= config.burst_scale
        price += step + config.mean_reversion * (anchor - price)
        price = min(max(price, config.min_price), config.max_price)
        yield int(round(price))


def smooth_price_signal(
    length: int,
    rng=None,
    anchor: float = 40_000.0,
    mean_reversion: float = 0.005,
    tick_std: float = 0.1,
    smoothing: int = 64,
) -> "np.ndarray":
    """A tick-level stock price window for the DFT compression analyses.

    Figures 5 and 6 reconstruct a "sample stock data stream" whose DFT
    truncates near-losslessly at kappa = 256.  That requires a signal that
    is (a) strongly mean-reverting -- the DFT treats the window as
    periodic, so wandering endpoints cause broadband leakage -- and
    (b) smooth at the sample scale (tick-level prices move by fractions of
    the spread between quotes).  This generator produces an
    Ornstein-Uhlenbeck price path, moving-average smoothed and rounded to
    integers; at the default parameters the E[MSE] < 0.25 lossless knee
    falls at kappa = 256 for windows of ~8 k samples, mirroring the paper.
    """
    if length < 1:
        raise ConfigurationError("length must be >= 1")
    if smoothing < 1:
        raise ConfigurationError("smoothing must be >= 1")
    if not 0 <= mean_reversion <= 1:
        raise ConfigurationError("mean_reversion must lie in [0, 1]")
    if tick_std <= 0:
        raise ConfigurationError("tick_std must be positive")
    generator = ensure_rng(rng)
    steps = generator.normal(0.0, tick_std, size=length + smoothing)
    path = np.empty(length + smoothing)
    price = anchor
    for index, step in enumerate(steps):
        price += mean_reversion * (anchor - price) + step
        path[index] = price
    if smoothing > 1:
        kernel = np.ones(smoothing) / smoothing
        path = np.convolve(path, kernel, mode="valid")
    return np.rint(path[:length])
