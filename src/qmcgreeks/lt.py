"""Dimension-reducing rotation of the normal draws.

Quasi-random sequences spend their quality on leading coordinates, so
the draws are rotated by an orthogonal matrix chosen to concentrate the
variability of the payoff there. Column k maximizes the squared
directional derivative of a smooth per-path driver with respect to the
k-th transformed coordinate, subject to orthonormality with the columns
already fixed; the optimum is the normalized projection of the driver
gradient onto the complement of those columns.

The driver is the largest of the legs sum_ij c_ij S_i(t_j) that a
payoff family in `payoffs.FAMILIES` lists: the running average for
fixed-strike payoffs (including the digital, whose indicator is driven
by the same variable), the average minus the terminal basket mean for
the floating strike, and both for best_of, max(average, terminal
mean). A column follows the first leg, largest first, whose projected
gradient does not vanish. Leg values and gradients are taken at an
expansion path: the one generated by setting each already transformed
coordinate to one and the rest to zero. None of this depends on the
strike level, so one rotation serves a whole strike sweep of the same
payoff kind.

Once every leg vanishes, as under degenerate volatility, one QR
factorization completes the basis; the build reports how many columns
it supplied.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketConfig, path_generator, simulate_paths, vol_loadings
from .payoffs import PayoffSpec

_DEGENERATE_FRACTION = 1e-14


@dataclass(frozen=True, eq=False)
class LtBuild:
    """Orthogonal rotation with build diagnostics.

    matrix is a read-only transposed view of the build's rows, one
    column per row, so the build holds one d x d array.

    objectives[k] is the squared directional derivative (gradient @
    column)^2 that greedy step k captured, 0 for a column of the QR
    completion; fallback_columns counts those, the trailing columns.
    """

    matrix: np.ndarray
    objectives: np.ndarray
    fallback_columns: int


def driver_gradient(config: MarketConfig, loadings: np.ndarray,
                    coeff: np.ndarray, spot: np.ndarray) -> np.ndarray:
    """Gradient of sum_ij c_ij S_i(t_j) in the normal draws, flat (d,).

    Coordinate (j-1)*M + m, time-major, carries sqrt(dt_j) times the
    loading-weighted suffix sum of c_il S_i(t_l) over dates l >= j:
    moving an increment at step j moves every later spot observation.
    """
    suffix = np.cumsum((coeff * spot[0])[:, ::-1], axis=1)[:, ::-1]
    per_step = np.einsum("im,in->nm", loadings, suffix)
    per_step *= np.sqrt(config.interval_lengths)[:, None]
    return per_step.reshape(-1)


def build_lt_matrix(config: MarketConfig, spec: PayoffSpec) -> LtBuild:
    """Greedy column-by-column construction of the rotation, from the
    largest leg whose projected gradient does not vanish; once none is
    left, one QR factorization completes the basis, each column signed
    so that its largest-magnitude entry is positive."""
    loadings = vol_loadings(config)
    m, n = config.n_assets, config.n_dates
    d = m * n
    legs = spec.family.legs(spec.weight_matrix(m, n))
    generator = path_generator(config, loadings)
    rows = np.zeros((d, d))
    eta_hat = np.zeros((1, d))
    objectives = np.zeros(d)
    fallback = 0
    for k in range(d):
        done = rows[:k]
        spot = simulate_paths(config, generator, eta_hat).spot_grid
        # largest first; sorted() is stable, so a tie keeps leg order
        ordered = sorted(legs, key=lambda leg: -np.einsum("ij,ij->", spot[0], leg))
        for tried, coeff in enumerate(ordered):
            gradient = driver_gradient(config, loadings, coeff, spot)
            # two projection passes keep the columns orthonormal at scale
            residual = gradient - done.T @ (done @ gradient)
            residual -= done.T @ (done @ residual)
            norm = float(np.linalg.norm(residual))
            if norm > _DEGENERATE_FRACTION * max(1.0, float(np.linalg.norm(gradient))):
                break
        else:
            complement = np.linalg.qr(done.T, mode="complete")[0][:, k:]
            peaks = complement[np.abs(complement).argmax(axis=0), np.arange(d - k)]
            rows[k:] = (complement * np.sign(peaks)).T
            fallback = d - k
            break
        # retire the legs tried first, whose projected gradient vanished: the
        # terminal mean's gradients all lie in sqrt(dt) (x) range(L^T), at most
        # `assets` dimensions, so once the columns span it, it stays spent
        legs = [leg for leg in legs if not any(leg is gone for gone in ordered[:tried])]
        rows[k] = column = residual / norm
        objectives[k] = float(gradient @ column) ** 2
        eta_hat[0] += column
    for table in (rows, objectives):
        table.setflags(write=False)
    return LtBuild(matrix=rows.T, objectives=objectives, fallback_columns=fallback)
