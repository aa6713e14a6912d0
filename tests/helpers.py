"""Reference implementations used only by the tests.

The package computes these quantities in factorized or direction-table
form; the tests compare it against the plain per-point versions here.
"""
import warnings

import numpy as np
from scipy.stats import qmc as scipy_qmc

from qmcgreeks import qmc


def _raw_engine(dimension: int, skip: int) -> scipy_qmc.Sobol:
    qmc._check_dimension(dimension)
    engine = scipy_qmc.Sobol(d=dimension, scramble=False, bits=qmc.BITS)
    engine.fast_forward(skip)
    return engine


def raw_sobol_block(dimension: int, count: int) -> np.ndarray:
    """First `count` raw Sobol points after the origin, as 32-bit integers."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        points = _raw_engine(dimension, 1).random(count)
    return np.round(points * 2.0 ** qmc.BITS).astype(np.uint64)


def sobol_point(index: int, dimension: int) -> np.ndarray:
    """The index-th point of the raw Sobol stream (origin skipped)."""
    if index < 0:
        raise ValueError("index must be non-negative")
    engine = _raw_engine(dimension, index + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return engine.random(1)[0]


def scramble(raw: np.ndarray, seed) -> np.ndarray:
    """Apply a seed-derived random scramble to a raw integer block."""
    rng = np.random.default_rng(seed)
    return qmc.DigitalScramble.random(raw.shape[1], rng).apply(raw)


def per_point_uniforms(config: qmc.QmcConfig, replication: int) -> np.ndarray:
    """lss_assemble with every raw point of every block scrambled."""
    n = config.points_per_replication
    raw = raw_sobol_block(config.lss_block_dimension, n)
    out = np.empty((n, config.nominal_dimension))
    start = 0
    for block, width in enumerate(config.block_sizes):
        rng = qmc._substream(config.seed, replication, qmc._TAG_SCRAMBLE, block)
        ints = qmc.DigitalScramble.random(width, rng).apply(raw[:, :width])
        order = qmc._substream(config.seed, replication, qmc._TAG_ORDER,
                               block).permutation(n)
        out[:, start:start + width] = qmc.to_unit(ints[order])
        start += width
    return out


def malliavin_derivative_samples(bundle, loadings: np.ndarray,
                                 component: int) -> np.ndarray:
    """Per-interval samples of D_s^k S_i(t_j).

    Returns (paths, assets, dates, intervals) with entry [p, i, j, l] =
    S_i(t_j) sigma_ik 1{l <= j}: the derivative is constant on each
    monitoring interval and vanishes after t_j. Dense output, meant for
    validation on small grids; the weight formulas use the factorized
    closed forms instead.
    """
    spot = bundle.spot_grid
    n = spot.shape[2]
    mask = (np.arange(n)[None, :] <= np.arange(n)[:, None]).astype(np.float64)
    return np.einsum("pij,i,jl->pijl", spot, loadings[:, component], mask)
