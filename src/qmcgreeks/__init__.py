"""Quasi-Monte Carlo deltas for path-average basket options.

The package estimates per-asset first-order sensitivities of
arithmetic-average basket payoffs, fixed strike, floating strike,
cash-or-nothing, and a two-variable best-of, using integration-by-
parts weights with adaptive localization, scrambled low-discrepancy
sampling, and an optional dimension-reducing rotation of the driving
draws. ``estimate`` is the main entry point, ``estimate_sweep`` its
strike-sweep form; ``presets`` holds the benchmark configurations the
CLI exposes.
"""
from .estimator import EstimateReport, EstimationError, estimate, estimate_sweep
from .lt import LtBuild, build_lt_matrix
from .market import (MarketConfig, PathBundle, PathGenerator, path_generator,
                     simulate_paths, vol_loadings)
from .payoffs import PayoffEval, PayoffSpec, evaluate
from .presets import PRESETS, ladder_market, preset, standard_stream
from .qmc import DigitalScramble, DimensionError, QmcConfig

__version__ = "0.1.0"

__all__ = [
    "DigitalScramble",
    "DimensionError",
    "EstimateReport",
    "EstimationError",
    "LtBuild",
    "MarketConfig",
    "PathBundle",
    "PathGenerator",
    "PayoffEval",
    "PayoffSpec",
    "PRESETS",
    "QmcConfig",
    "build_lt_matrix",
    "estimate",
    "estimate_sweep",
    "evaluate",
    "ladder_market",
    "path_generator",
    "preset",
    "simulate_paths",
    "standard_stream",
    "vol_loadings",
    "__version__",
]
