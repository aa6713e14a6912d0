"""Benchmark configurations used by the CLI and the acceptance tests.

The benchmark market is a ten-asset equicorrelated basket with a
volatility ladder from 10% to 50%, observed on 64 equally spaced
dates over one year. Each named preset is one payoff at the money,
run on `ladder_market()` with `standard_stream()` (32 replications of
2048 scrambled-Sobol points) and `estimate`'s default method.
"""
from __future__ import annotations

import numpy as np

from .market import MarketConfig
from .payoffs import PayoffSpec
from .qmc import QmcConfig

DEFAULT_SEED = 42
BENCHMARK_SPOT = 100.0
BENCHMARK_RATE = 0.05
BENCHMARK_CORRELATION = 0.5


def equicorrelated_market(spots, vols, *, rate: float, correlation: float,
                          maturity: float, n_dates: int) -> MarketConfig:
    """Assets sharing one pairwise correlation, on n_dates even steps to maturity."""
    n = len(spots)
    rho = np.full((n, n), correlation)
    np.fill_diagonal(rho, 1.0)
    times = maturity * np.arange(1, n_dates + 1) / n_dates
    return MarketConfig(spots=np.asarray(spots), rate=rate, vols=np.asarray(vols),
                        correlation=rho, maturity=maturity, monitoring_times=times)


def ladder_market(n_assets: int = 10, n_dates: int = 64,
                  maturity: float = 1.0) -> MarketConfig:
    """Equicorrelated basket with volatilities 0.10 + 0.40 (i-1)/9.

    The ladder slope is fixed by the ten-asset benchmark; smaller
    baskets take the first rungs so asset i means the same thing at
    any size.
    """
    vols = 0.10 + 0.40 * np.arange(n_assets) / 9.0
    return equicorrelated_market(np.full(n_assets, BENCHMARK_SPOT), vols,
                                 rate=BENCHMARK_RATE,
                                 correlation=BENCHMARK_CORRELATION,
                                 maturity=maturity, n_dates=n_dates)


def standard_stream(*, points: int = 2048, replications: int = 32,
                    block: int = 50, seed: int = DEFAULT_SEED,
                    mode: str = "scrambled_sobol") -> QmcConfig:
    return QmcConfig(points_per_replication=points,
                     replications=replications,
                     lss_block_dimension=block,
                     seed=seed,
                     mode=mode)


_PRESET_PAYOFFS = {
    "table1": ("call", BENCHMARK_SPOT),
    "table3": ("floating", 0.0),
    "table4": ("digital", BENCHMARK_SPOT),
    "table5": ("best_of", BENCHMARK_SPOT),
}

PRESETS = tuple(_PRESET_PAYOFFS)


def preset(name: str) -> PayoffSpec:
    """Named benchmark payoff; table1 is the plain fixed-strike case."""
    try:
        kind, strike = _PRESET_PAYOFFS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {PRESETS}") from None
    return PayoffSpec(kind=kind, strike=strike)
