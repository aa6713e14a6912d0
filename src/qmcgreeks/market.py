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
A rotated replication is then one product normals @ G, whose grid
columns take the drift offset and exp and whose W columns go to their
own (paths, m) arrays. Unrotated draws are the increments themselves
and skip the d x d product; their build writes the same three parts.
Either generator can write the spot grid over the draws it came from,
so one float64 (paths, d) buffer carries a replication from the
uniforms, through the float32 normals in the leading half of its
bytes, to the spots and, once the legs are read, to the basket jets'
weighted grid; a spot grid held there is valid until the jets are
built.

The rotated product is one of two single-precision stages; the other
is the inverse normal that writes its float32 draws. G is stored in
float32, each block of rows built in float64 and then rounded, and the
product runs as an sgemm on PRODUCT_ROWS draws at a time, with the
offset added as each block's grid columns are upcast into the float64
spot grid. Float32 draws, the estimator's, go to the sgemm as they
are; float64 ones, from tests and library users, are cast a block at a
time into a float32 scratch. The product carries far more
precision than a report shows: its float32 rounding moves deltas by
well under 1e-3 standard errors, and it halves the product's time. The
rows go in blocks because OpenBLAS's packing workspace grows with a
GEMM's row count, and a whole-replication cast would add draw-sized
temporaries. The blocks run back to front, and each is read whole
before its spots are written, so spots may overwrite their own draws:
spot rows [s, e) overlay float32 draw rows [2s, 2e), which that block
or a later one has read. Everything else stays float64: the unrotated
build, which the LT build uses, the offset and exp, and all that reads
the paths.
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

    matrix is the read-only float32 G = R^T [A | B | C], (d, d + 2m):
    the log-spot grid, asset-major, W(T) and int W ds; None without a
    rotation. The read-only offset (d,) is added to the log-spot grid
    before exp: log S_i(0) + (r - sigma_i^2/2) t_j with a rotation, the
    drift alone without, whose build scales by S_i(0) last. Neither
    generator needs the draws once it has read them, so `simulate_paths`
    may write the spot grid over them, float32 draws included.
    """

    loadings: np.ndarray
    offset: np.ndarray
    matrix: np.ndarray | None = None


# most rows of R^T in one block of the generator build
GENERATOR_ROWS = 16
# draws per sgemm of the rotated product: OpenBLAS's packing workspace grows
# with the row count, 0.9 MB resident at 256 rows against 3.3 MB at 2048
PRODUCT_ROWS = 256


def _brownian_sums(config: MarketConfig, loadings: np.ndarray, draws: np.ndarray,
                   grid: np.ndarray, w_terminal: np.ndarray,
                   w_time_integral: np.ndarray) -> None:
    """Write the driftless log-spot grid of time-major draws (rows, d),
    asset-major, into `grid` (rows, d), which may be `draws` itself, and
    W(T) and the trapezoid int W ds into the two (rows, m) arrays."""
    m, n = config.n_assets, config.n_dates
    dt = config.interval_lengths
    # a new array, so the grid may overwrite the draws
    increments = draws.reshape(-1, n, m).transpose(0, 2, 1) * np.sqrt(dt)
    log_grid = grid.reshape(-1, m, n)
    np.cumsum(np.matmul(loadings, increments, out=log_grid), axis=2, out=log_grid)
    w_grid = np.cumsum(increments, axis=2)
    w_terminal[...] = w_grid[:, :, -1]
    # trapezoid sum_j (W_{j-1} + W_j) dt_j / 2 with W_0 = 0, regrouped by W_j
    np.matmul(w_grid, 0.5 * (dt + np.append(dt[1:], 0.0)), out=w_time_integral)


def _is_identity(matrix: np.ndarray, d: int) -> bool:
    """Whether `matrix` equals the d x d identity, without building one."""
    return (matrix.shape == (d, d) and np.count_nonzero(matrix) == d
            and bool((np.diagonal(matrix) == 1.0).all()))


def path_generator(config: MarketConfig, loadings: np.ndarray,
                   rotation: np.ndarray | None = None) -> PathGenerator:
    """Precompose the rotation with the path build, once per run; an
    identity rotation is no rotation and gets the unrotated generator.

    G is filled in blocks of at most GENERATOR_ROWS rows of R^T, each
    built in float64 and rounded into the float32 G: each row's path
    build is independent of the others, so the blocks give the rounded
    one-shot build's bits while no float64 array is more than a block
    in size."""
    d, m = config.nominal_dimension, config.n_assets
    loadings = _frozen_array(loadings)
    offset = ((config.rate - 0.5 * config.vols ** 2)[:, None]
              * config.monitoring_times).reshape(d)
    if rotation is None or _is_identity(rotation, d):
        return PathGenerator(loadings, _frozen_array(offset))
    matrix = np.empty((d, d + 2 * m), np.float32)
    # blocks of nearly equal size, so none is a single row: numpy lays out a
    # lone row's temporaries in another order, which rounds int W ds apart
    count = -(-d // GENERATOR_ROWS)
    edges = [d * block // count for block in range(count + 1)]
    block = np.empty((GENERATOR_ROWS, d + 2 * m))
    for start, stop in zip(edges, edges[1:]):
        _brownian_sums(config, loadings, rotation.T[start:stop],
                       *np.split(block[:stop - start], [d, d + m], axis=1))
        matrix[start:stop] = block[:stop - start]
    matrix.setflags(write=False)
    offset += np.repeat(np.log(config.spots), config.n_dates)
    return PathGenerator(loadings, _frozen_array(offset), matrix)


def simulate_paths(config: MarketConfig, generator: PathGenerator,
                   normals: np.ndarray, out: np.ndarray | None = None) -> PathBundle:
    """Simulate a replication from standard normal draws (paths, d),
    float32 or float64, time-major: coordinate (j-1)*M + m feeds driver
    m over (t_{j-1}, t_j]. The spot grid goes into `out` when it is
    given, a C-contiguous float64 (paths, d) array that may be `normals`
    itself or, for float32 draws, the array whose leading bytes they
    are, else into a new one; W(T) and int W ds go into the two
    (paths, m) planes of a new array. Either generator writes the
    log-spot grid plus the offset there, from normals @ G or the draws'
    Brownian sums, and exp acts on it in place. The rotated product
    runs PRODUCT_ROWS draws at a time, last block first: each block,
    cast into a float32 scratch unless it is float32 already, is
    multiplied by the float32 G into a second scratch, whose grid
    columns are upcast into `out` plus the offset and whose W columns
    into the planes, so the call holds at most two block-sized
    scratches and never a cast of all the draws. The bundle's spot grid
    views `out`, so it is valid until the next write there: in a
    worker's draw buffer, until the basket jets are built over it."""
    p, d = normals.shape
    m, n = config.n_assets, config.n_dates
    if d != m * n:
        raise ValueError(
            f"normal draws have dimension {d}, expected assets*dates = {m * n}")
    # W(T) and int W ds, each a contiguous (paths, m) plane
    grid, brownian = _output(out, (p, d)), np.empty((2, p, m))
    if generator.matrix is None:
        _brownian_sums(config, generator.loadings, normals, grid, *brownian)
        grid += generator.offset
    else:
        rows = min(p, PRODUCT_ROWS)
        product = np.empty((rows, d + 2 * m), np.float32)
        # float32 draws go to the sgemm as they are; others are cast per block
        cast = None if normals.dtype == np.float32 else np.empty((rows, d), np.float32)
        # back to front: spot rows [s, e) overlay float32 draw rows [2s, 2e),
        # which this block or a later one has read
        for start in reversed(range(0, p, PRODUCT_ROWS)):
            stop = min(start + PRODUCT_ROWS, p)
            block, scratch = normals[start:stop], product[:stop - start]
            if cast is not None:
                np.copyto(cast[:stop - start], block)
                block = cast[:stop - start]
            np.matmul(block, generator.matrix, out=scratch)
            np.add(scratch[:, :d], generator.offset, out=grid[start:stop])
            brownian[:, start:stop] = np.moveaxis(scratch[:, d:].reshape(-1, 2, m), 1, 0)
    np.exp(grid, out=grid)
    spots = grid.reshape(p, m, n)
    if generator.matrix is None:
        spots *= config.spots[:, None]
    return PathBundle(spots, *brownian)
