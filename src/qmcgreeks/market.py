"""Correlated lognormal market paths on a monitoring grid.

Assets follow dS_i = r S_i dt + sigma_i S_i dB_i under the pricing
measure, with corr(B_i, B_l) = rho_il. Simulation uses the factor form

    S_i(t_j) = S_i(0) exp((r - sigma_i^2/2) t_j + sum_m sigma_im W_m(t_j))

where the W_m are independent Brownian drivers and sigma_im =
sigma_i alpha_im for the Cholesky factor alpha of rho. In this form the
Malliavin derivative of a path value with respect to driver k is the
piecewise constant function D_s^k S_i(t_j) = S_i(t_j) sigma_ik
1{s <= t_j}, which is what the weight formulas consume downstream.

Everything between the normal draws and log S is linear: the
orthogonal rotation R of the draws, the sqrt(dt) scaling, the loadings
and the Brownian cumsum, and so are W(T) and the trapezoid
int_0^T W ds. `path_generator` precomposes them once per run into one
matrix G = R^T [A | B | C] of shape (d, d + 2m), d = assets * dates:
block A maps the draws to the log-spot grid, B to W(T), C to int W ds.
A rotated replication is then one product normals @ G, plus the drift
offset and exp on the spot columns. Unrotated draws are the increments
themselves, so they skip the d x d product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmc import _output


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MarketConfig:
    """Static market description.

    monitoring_times are the strictly increasing averaging dates, the
    last of which must equal the maturity. Every entry must be finite
    and the correlation positive definite. Volatilities may be zero,
    which degenerates the paths to deterministic forwards.
    """

    spots: np.ndarray
    rate: float
    vols: np.ndarray
    correlation: np.ndarray
    maturity: float
    monitoring_times: np.ndarray

    def __post_init__(self) -> None:
        spots = _frozen_array(self.spots)
        vols = _frozen_array(self.vols)
        corr = _frozen_array(self.correlation)
        times = _frozen_array(self.monitoring_times)
        for name, arr in (("spots", spots), ("vols", vols),
                          ("correlation", corr), ("monitoring_times", times)):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rate", float(self.rate))
        object.__setattr__(self, "maturity", float(self.maturity))
        for name in ("spots", "rate", "vols", "correlation", "maturity",
                     "monitoring_times"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

        if spots.ndim != 1 or spots.shape[0] < 1:
            raise ValueError("spots must be a non-empty vector")
        m = spots.shape[0]
        if (spots <= 0).any():
            raise ValueError("spots must be strictly positive")
        if vols.shape != (m,):
            raise ValueError("vols must match the number of assets")
        if (vols < 0).any():
            raise ValueError("vols must be non-negative")
        if corr.shape != (m, m):
            raise ValueError("correlation must be a square matrix over the assets")
        if not np.allclose(corr, corr.T, atol=1e-12):
            raise ValueError("correlation must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise ValueError("correlation must have a unit diagonal")
        try:
            cholesky(corr)
        except ValueError as exc:
            raise ValueError(f"correlation {exc}") from None
        if self.maturity <= 0:
            raise ValueError("maturity must be positive")
        if times.ndim != 1 or times.shape[0] < 1:
            raise ValueError("monitoring_times must be a non-empty vector")
        if times[0] <= 0 or (np.diff(times) <= 0).any():
            raise ValueError("monitoring_times must be strictly increasing and positive")
        if not np.isclose(times[-1], self.maturity, rtol=0, atol=1e-12):
            raise ValueError("the last monitoring time must equal the maturity")

    @property
    def n_assets(self) -> int:
        return self.spots.shape[0]

    @property
    def n_dates(self) -> int:
        return self.monitoring_times.shape[0]

    @property
    def nominal_dimension(self) -> int:
        return self.n_assets * self.n_dates

    @property
    def grid(self) -> np.ndarray:
        """Monitoring times with the origin prepended."""
        return np.concatenate(([0.0], self.monitoring_times))

    @property
    def interval_lengths(self) -> np.ndarray:
        return np.diff(self.grid)


def cholesky(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, naming the failing leading minor on error."""
    matrix = np.asarray(matrix, dtype=np.float64)
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        for order in range(1, matrix.shape[0] + 1):
            try:
                np.linalg.cholesky(matrix[:order, :order])
            except np.linalg.LinAlgError:
                raise ValueError(
                    "matrix is not positive definite: leading minor of "
                    f"order {order} fails") from None
        raise


def vol_loadings(config: MarketConfig) -> np.ndarray:
    """Factor loadings sigma_im = sigma_i alpha_im, shape (assets, drivers).

    Row i reproduces the covariance structure exactly:
    sum_m sigma_im sigma_lm = sigma_i sigma_l rho_il.
    """
    alpha = cholesky(config.correlation)
    return config.vols[:, None] * alpha


@dataclass(frozen=True, eq=False)
class PathBundle:
    """Simulated trajectories for one replication, path axis first.

    spot_grid[p, i, j] is S_i(t_j); w_terminal[p, m] is W_m(T);
    w_time_integral[p, m] approximates int_0^T W_m(s) ds by the
    trapezoid rule on the monitoring grid.
    """

    spot_grid: np.ndarray
    w_terminal: np.ndarray
    w_time_integral: np.ndarray


@dataclass(frozen=True, eq=False)
class PathGenerator:
    """What one run needs to turn normal draws into paths.

    matrix is the read-only G = R^T [A | B | C], (d, d + 2m); A's column
    i*n + j is log S_i(t_j) less offset[i*n + j], the read-only
    log S_i(0) + (r - sigma_i^2/2) t_j. Both are None without a rotation.
    """

    loadings: np.ndarray
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None


# most rows of R^T in one block of the generator build
GENERATOR_ROWS = 16


def _brownian_sums(config: MarketConfig, loadings: np.ndarray,
                   draws: np.ndarray) -> tuple[np.ndarray, ...]:
    """The driftless log-spot grid (rows, m, n), W(T) and the trapezoid
    int W ds, both (rows, m), for time-major draws (rows, d)."""
    rows = draws.shape[0]
    m, n = config.n_assets, config.n_dates
    dt = config.interval_lengths
    increments = draws.reshape(rows, n, m).transpose(0, 2, 1) * np.sqrt(dt)
    log_grid = np.cumsum(loadings @ increments, axis=2)
    w_grid = np.cumsum(increments, axis=2)
    # trapezoid sum_j (W_{j-1} + W_j) dt_j / 2 with W_0 = 0, regrouped by W_j
    trapezoid = 0.5 * (dt + np.append(dt[1:], 0.0))
    return log_grid, w_grid[:, :, -1], w_grid @ trapezoid


def _drift(config: MarketConfig) -> np.ndarray:
    return (config.rate - 0.5 * config.vols ** 2)[:, None] * config.monitoring_times


def _is_identity(matrix: np.ndarray, d: int) -> bool:
    """Whether `matrix` equals the d x d identity, without building one."""
    return (matrix.shape == (d, d) and np.count_nonzero(matrix) == d
            and bool((np.diagonal(matrix) == 1.0).all()))


def path_generator(config: MarketConfig, loadings: np.ndarray,
                   rotation: np.ndarray | None = None) -> PathGenerator:
    """Precompose the rotation with the path build, once per run; an
    identity rotation is no rotation and gets the unrotated generator.

    G is filled in blocks of at most GENERATOR_ROWS rows of R^T: each
    row's path build is independent of the others, so the blocks give
    the one-shot build's bits while the temporaries stay a few blocks in
    size."""
    d, m = config.nominal_dimension, config.n_assets
    loadings = _frozen_array(loadings)
    if rotation is None or _is_identity(rotation, d):
        return PathGenerator(loadings)
    matrix = np.empty((d, d + 2 * m))
    # blocks of nearly equal size, so none is a single row: numpy lays out a
    # lone row's temporaries in another order, which rounds int W ds apart
    count = -(-d // GENERATOR_ROWS)
    edges = [d * block // count for block in range(count + 1)]
    for rows in map(slice, edges, edges[1:]):
        log_grid, w_terminal, w_integral = _brownian_sums(config, loadings,
                                                          rotation.T[rows])
        matrix[rows, :d] = log_grid.reshape(-1, d)
        matrix[rows, d:d + m] = w_terminal
        matrix[rows, d + m:] = w_integral
    matrix.setflags(write=False)
    offset = np.log(config.spots)[:, None] + _drift(config)
    return PathGenerator(loadings, matrix, _frozen_array(offset.reshape(d)))


def simulate_paths(config: MarketConfig, generator: PathGenerator,
                   normals: np.ndarray, out: np.ndarray | None = None) -> PathBundle:
    """Simulate a replication from standard normal draws (paths, d),
    time-major: coordinate (j-1)*M + m feeds driver m over (t_{j-1}, t_j].
    With a rotation this is one product normals @ G, then the offset
    and exp in place on the spot columns. The product goes into `out`
    when it is given, a C-contiguous float64 (paths, d + 2m) array, and
    the bundle's spot grid is then a view of it; an unrotated generator
    forms no product and takes no `out`."""
    p, d = normals.shape
    m, n = config.n_assets, config.n_dates
    if d != m * n:
        raise ValueError(
            f"normal draws have dimension {d}, expected assets*dates = {m * n}")
    if generator.matrix is None:
        if out is not None:
            raise ValueError("out holds the rotated product; "
                             "an unrotated generator takes none")
        log_grid, *w = _brownian_sums(config, generator.loadings, normals)
        return PathBundle(config.spots[:, None] * np.exp(log_grid + _drift(config)), *w)
    y = np.matmul(normals, generator.matrix, out=_output(out, (p, d + 2 * m)))
    spots = y[:, :d]
    spots += generator.offset
    np.exp(spots, out=spots)
    # the W columns are copied out as contiguous (paths, assets) arrays
    return PathBundle(spots.reshape(p, m, n), y[:, d:d + m].copy(), y[:, d + m:].copy())
