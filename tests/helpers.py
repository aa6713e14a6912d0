"""Reference implementations used only by the tests.

The package computes these quantities in factorized, direction-table
or precomposed-matrix form; the tests compare it against the plain
per-point, per-interval and increment-by-increment versions here.
"""
import math
import warnings

import numpy as np
from scipy.stats import qmc as scipy_qmc

from qmcgreeks import qmc, weights
from qmcgreeks.market import PathBundle


def _raw_engine(dimension: int, skip: int) -> scipy_qmc.Sobol:
    if not 1 <= dimension <= qmc.MAX_DIMENSION:
        raise qmc.DimensionError("dimension", f"dimension {dimension} is outside "
                                 f"the Sobol table (1 to {qmc.MAX_DIMENSION})")
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


def to_unit(ints: np.ndarray) -> np.ndarray:
    """Scrambled integers k as k / 2**BITS, clipped into the open unit
    interval as every uniform source of the package clips."""
    return np.clip(ints * 2.0 ** -qmc.BITS, qmc.UNIT_LOW, qmc.UNIT_HIGH)


def per_point_uniforms(config: qmc.QmcConfig, replication: int,
                       dimension: int) -> np.ndarray:
    """lss_assemble with every raw point of every block scrambled."""
    n = config.points_per_replication
    widths = config.block_sizes(dimension)
    raw = raw_sobol_block(widths[0], n)
    out = np.empty((n, dimension))
    start = 0
    for block, width in enumerate(widths):
        rng = qmc._substream(config.seed, replication, qmc._TAG_SCRAMBLE, block)
        ints = qmc.DigitalScramble.random(width, rng).apply(raw[:, :width])
        order = qmc._substream(config.seed, replication, qmc._TAG_ORDER,
                               block).permutation(n)
        out[:, start:start + width] = to_unit(ints[order])
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


def identity_scramble(dims: int) -> qmc.DigitalScramble:
    """The scramble that leaves every point unchanged."""
    columns = np.empty((dims, qmc.BITS), dtype=np.uint64)
    for digit in range(qmc.BITS):
        columns[:, digit] = np.uint64(1) << np.uint64(qmc.BITS - 1 - digit)
    return qmc.DigitalScramble(columns=columns, shift=np.zeros(dims, dtype=np.uint64))


# ---------------------------------------------------------------------------
# structured path build: increments -> cumsum -> exp


def driver_increments(config, normals: np.ndarray,
                      rotation: np.ndarray | None = None) -> np.ndarray:
    """Uncorrelated driver increments (paths, drivers, dates).

    normals are time-major: coordinate (j-1)*M + m, after the optional
    rotation eta = normals @ R^T, feeds driver m over (t_{j-1}, t_j].
    """
    p = normals.shape[0]
    m, n = config.n_assets, config.n_dates
    eta = normals @ rotation.T if rotation is not None else normals
    sqrt_dt = np.sqrt(config.interval_lengths)
    return eta.reshape(p, n, m).transpose(0, 2, 1) * sqrt_dt[None, None, :]


def paths_from_increments(config, loadings: np.ndarray,
                          increments: np.ndarray) -> PathBundle:
    """The bundle built step by step from driver increments (p, m, j)."""
    t = config.monitoring_times
    dt = config.interval_lengths
    drive = loadings @ increments
    drift = (config.rate - 0.5 * config.vols ** 2)[None, :, None] * t[None, None, :]
    spot_grid = config.spots[None, :, None] * np.exp(np.cumsum(drive, axis=2) + drift)
    w_grid = np.cumsum(increments, axis=2)
    w_time_integral = np.zeros(w_grid.shape[:2])
    for j in range(config.n_dates):
        left = w_grid[:, :, j - 1] if j else 0.0
        w_time_integral += 0.5 * (left + w_grid[:, :, j]) * dt[j]
    return PathBundle(spot_grid=spot_grid, w_terminal=w_grid[:, :, -1],
                      w_time_integral=w_time_integral)


def reference_paths(config, loadings: np.ndarray, normals: np.ndarray,
                    rotation: np.ndarray | None = None) -> PathBundle:
    return paths_from_increments(config, loadings,
                                 driver_increments(config, normals, rotation))


# ---------------------------------------------------------------------------
# per-interval Malliavin jets


def lincomb_jet(spot_grid: np.ndarray, loadings: np.ndarray,
                coeff: np.ndarray, component: int) -> weights.MalliavinJet:
    """Jet of sum_ij c_ij S_i(t_j) with respect to driver `component`.

    value is (paths,) and samples (intervals, paths): the derivative
    sample on interval l collects every observation at or after t_l,
    samples[l] = sum_i sigma_ik sum_{j >= l} c_ij S_i(t_j), a suffix
    sum over dates.
    """
    weighted = coeff[None, :, :] * spot_grid
    value = weighted.sum(axis=(1, 2))
    suffix = np.cumsum(weighted[:, :, ::-1], axis=2)[:, :, ::-1]
    samples = np.einsum("i,pij->jp", loadings[:, component], suffix)
    return weights.MalliavinJet(value=value, samples=samples)


def time_integral(jet, interval_lengths: np.ndarray) -> np.ndarray:
    """int_0^T D_s f ds for per-interval samples."""
    return interval_lengths @ jet.samples


def weighted_time_integral(jet, interval_moments: np.ndarray) -> np.ndarray:
    """int_0^T s D_s f ds; pass (t_l^2 - t_{l-1}^2)/2 per interval."""
    return interval_moments @ jet.samples


# ---------------------------------------------------------------------------
# per-kind payoff variables


def aggregates(spot_grid: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """(average, average_grad, terminal, terminal_grad): the running
    average sum_ij w_ij S_i(t_j) and the equally weighted terminal mean,
    (paths,), each with its parts x_k d/dx_k per asset, (paths, assets)."""
    terminal = spot_grid[:, :, -1]
    return (np.einsum("pij,ij->p", spot_grid, weights),
            np.einsum("pij,ij->pi", spot_grid, weights),
            terminal.mean(axis=1), terminal / terminal.shape[1])


def reference_variable(kind: str, average, terminal) -> np.ndarray:
    """z of one kind, written out per kind from the aggregates: the
    average for call and digital, the average minus the terminal mean
    for floating, and the max of the two for best_of."""
    if kind == "floating":
        return average - terminal
    if kind == "best_of":
        return np.maximum(average, terminal)
    return average


def reference_slope(kind: str, average, average_grad, terminal,
                    terminal_grad) -> np.ndarray:
    """x_k dz/dx_k of one kind, (paths, assets); best_of follows the
    average on a tie, as its payoff pays the average there."""
    if kind == "floating":
        return average_grad - terminal_grad
    if kind == "best_of":
        return np.where((average >= terminal)[:, None], average_grad, terminal_grad)
    return average_grad


def reference_bump_contrast(kind: str, strike: float, spot_grid: np.ndarray,
                            weights: np.ndarray, spots: np.ndarray,
                            bump: float) -> np.ndarray:
    """Central-difference contributions, (paths, assets), of the
    per-kind variable with each aggregate shifted by bump times its
    component-k part: (z - K)^+, or 1{z >= K} for the digital."""
    average, average_grad, terminal, terminal_grad = aggregates(spot_grid, weights)

    def payoff(shift):
        z = reference_variable(kind, average[:, None] + shift * average_grad,
                               terminal[:, None] + shift * terminal_grad)
        if kind == "digital":
            return (z >= strike).astype(np.float64)
        return np.maximum(z - strike, 0.0)

    return (payoff(bump) - payoff(-bump)) / (2.0 * bump * spots)


# ---------------------------------------------------------------------------
# exactly rounded replication means


def fsum_replication_means(family, targets: list, ev, pw, spots: np.ndarray,
                           discount: float) -> tuple[np.ndarray, np.ndarray]:
    """(means, bounds) of one replication, each (targets, candidates,
    assets), for (strike, widths) targets whose widths broadcast against
    (candidates, assets).

    Each column's kept paths contribute smooth * slope + remainder *
    weight of the family's split at z - strike, built one column at a
    time and summed by the exactly rounded math.fsum. bounds is the
    error a plain float sum may make on the same scale, paths * eps *
    sum |contribution|, so it is exactly 0 where no path contributed.
    """
    paths, m = pw.values.shape
    z = ev.variable
    slope = ev.slope / spots
    kept = ~pw.rejected
    means, bounds = [], []
    for strike, widths in targets:
        for row in np.broadcast_to(widths, (np.shape(widths)[0], m)):
            for k, width in enumerate(row):
                keep = kept[:, k]
                smooth, remainder = family.split(z[keep] - strike, width)
                column = smooth * slope[keep, k] + remainder * pw.values[keep, k]
                scale = discount / keep.sum()
                means.append(scale * math.fsum(column))
                bounds.append(scale * paths * np.finfo(float).eps
                              * math.fsum(np.abs(column)))
    shape = (len(targets), -1, m)
    return np.reshape(means, shape), np.reshape(bounds, shape)


# ---------------------------------------------------------------------------
# closed-form single-variable weights


def skorohod_blocks(config, loadings: np.ndarray, coeff: np.ndarray, bundle,
                    floating: bool = False) -> tuple[np.ndarray, ...]:
    """(g, d, gi, di), each (paths, assets) with column k for driver k.

    g is the pathwise spot derivative of the averaged quantity, d the
    time integral of its Malliavin derivative, gi and di the time
    integrals of the derivatives of g and d. floating subtracts the
    terminal-mean strike leg from all four.
    """
    spot = bundle.spot_grid
    t = config.monitoring_times
    x = config.spots
    own = np.diag(loadings) / x
    squared = loadings * loadings
    sums = [np.einsum("pij,ij,j->pi", spot, coeff, t ** r) for r in range(3)]
    g, d, gi, di = sums[0] / x, sums[1] @ loadings, sums[1] * own, sums[2] @ squared
    if floating:
        m, big_t = config.n_assets, config.maturity
        terminal = spot[:, :, -1]
        g = g - terminal / (m * x)
        d = d - terminal @ loadings * (big_t / m)
        gi = gi - terminal * own * (big_t / m)
        di = di - terminal @ squared * (big_t * big_t / m)
    return g, d, gi, di


def _closed_form_split(g, d, gi):
    """Degenerate mask, rejected subset and safe denominator: a tiny d
    is harmless, weight zero, when g and gi vanish with it."""
    def tiny(values):
        return np.abs(values) <= (weights.DEGENERATE_FRACTION
                                  * np.mean(np.abs(values), axis=0))

    degenerate = tiny(d)
    harmless = degenerate & tiny(g) & tiny(gi)
    return degenerate, degenerate & ~harmless, np.where(degenerate, 1.0, d)


def closed_form_weight(blocks, w_terminal: np.ndarray) -> weights.PathWeights:
    """(g/d)(W(T) + di/d) - gi/d."""
    g, d, gi, di = blocks
    degenerate, rejected, safe = _closed_form_split(g, d, gi)
    values = g / safe * (w_terminal + di / safe) - gi / safe
    return weights.PathWeights(np.where(degenerate, 0.0, values), rejected)


def closed_form_divergence(blocks, w_terminal: np.ndarray) -> weights.PathWeights:
    """W(T)/d + di/d^2, with the mask of the blocks' own weight."""
    g, d, gi, di = blocks
    degenerate, rejected, safe = _closed_form_split(g, d, gi)
    values = w_terminal / safe + di / safe ** 2
    return weights.PathWeights(np.where(degenerate, 0.0, values), rejected)


def closed_form_digital(blocks, w_terminal: np.ndarray, average: np.ndarray,
                        strike: float, bandwidth) -> weights.PathWeights:
    """Laplace kernel exp(-|z|), z = (average - K)/bandwidth, times the
    closed-form weight, minus the kernel slope times g/bandwidth."""
    g, d, gi, di = blocks
    degenerate, rejected, safe = _closed_form_split(g, d, gi)
    z = (average[:, None] - strike) / bandwidth
    kernel = np.exp(-np.abs(z))
    divergence = w_terminal / safe + di / safe ** 2
    values = (kernel * (g * divergence - gi / safe)
              + g / bandwidth * np.sign(z) * kernel)
    return weights.PathWeights(np.where(degenerate, 0.0, values), rejected)
