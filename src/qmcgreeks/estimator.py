"""Delta estimation over randomized quasi-Monte Carlo replications.

One run draws R independently scrambled replications of P points,
maps each through the low-discrepancy machinery (and optionally the
dimension-reducing rotation), simulates paths, and averages a per-path
delta contribution. The reported estimate is the mean of the R
replication means; the standard error is their sample standard
deviation over sqrt(R), the usual randomized-QMC construction.

Three methods share one replication kernel: `_replication_sample`
builds the strike-free draws, paths, aggregates and weights, and
`_replication_means` reduces them through the family's kink to
discounted means for a table of localization widths. "adaptive" and
"loc" use the integration-by-parts weights with a localized payoff
split, one expression for every payoff kind, the former choosing the
localization scale per component in a pilot phase, the latter taking it
from a caller-supplied fraction. The pilot race runs the same kernel
over the whole candidate grid on PILOT_SPLIT sub-replications of P /
PILOT_SPLIT points each, so "adaptive" needs at least 2 * PILOT_SPLIT
points per replication.
"fd" is the central finite-difference baseline with common random
numbers, included for cost and accuracy comparisons. What differs
between payoff kinds comes from `payoffs.FAMILIES`.

Replications are independent tasks. Each sums its paths by `math.fsum`;
the replication means come back in order from `map` or the pool's `map`
and are stacked and averaged by `np.mean`, so reports are bit-identical
for a fixed seed regardless of the worker count.
"""
from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import qmc as streams
from . import weights as wt
from .lt import LtBuild, build_lt_matrix
from .market import (MarketConfig, PathGenerator, path_generator, simulate_paths,
                     vol_loadings)
from .payoffs import PayoffEval, PayoffSpec, discount, evaluate

log = logging.getLogger(__name__)

METHODS = ("adaptive", "loc", "fd")
REJECTION_LIMIT = 1e-4
PILOT_SPLIT = 8
MIN_ADAPTIVE_POINTS = 2 * PILOT_SPLIT


class EstimationError(RuntimeError):
    """Raised when a run cannot produce a trustworthy estimate."""


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Estimation results plus enough context to reproduce them.

    rejected_by_component counts degenerate paths dropped per asset
    across all replications; simulated_paths counts path evaluations
    across every scenario the method needed (bump runs included), the
    quantity cost comparisons should use. localization_widths echoes
    the per-component scale actually used, None for the
    finite-difference method, and lt_build the rotation, None without.
    """

    deltas: np.ndarray
    stderrs: np.ndarray
    replication_means: np.ndarray
    rejected_by_component: np.ndarray
    simulated_paths: int
    runtime_seconds: float
    method: str
    settings: dict
    localization_widths: np.ndarray | None
    lt_build: LtBuild | None


@dataclass(frozen=True, eq=False)
class _Run:
    """What every replication of one `estimate` call shares; fd_bump is
    set for method "fd", whose contributions are bump contrasts."""

    config: MarketConfig
    spec: PayoffSpec
    loadings: np.ndarray
    weight_matrix: np.ndarray
    generator: PathGenerator
    fd_bump: float | None


def _replication_sample(run: _Run, stream: streams.QmcConfig, index: int):
    """One replication's strike-free (bundle, ev, jets, weights); "fd"
    needs no weight, so its jets and weights are None."""
    config = run.config
    normals = streams.replication_normals(stream, index, config.nominal_dimension)
    bundle = simulate_paths(config, run.generator, normals)
    ev = evaluate(run.spec, config, bundle)
    if run.fd_bump is not None:
        return bundle, ev, None, None
    jets = wt.basket_jets(config, run.loadings, run.weight_matrix, bundle)
    return bundle, ev, jets, run.spec.family.weights(config, jets, bundle)


def _replication_means(run: _Run, stream: streams.QmcConfig, index: int,
                       widths: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Discounted means of one replication's kept paths, (candidates,
    assets), and its rejection counts per component, (assets,).

    A path contributes smooth(z) * slope + remainder(z) * weight from
    its family's variable z, kink, slopes, pair and weight. widths
    broadcasts against (candidates, assets): (1, assets) for the main
    run's widths or digital bandwidths, (candidates, 1) for the pilot
    race's shared grid; "fd" ignores it. Rejected paths contribute exact
    zeros, which the compensated sum ignores; a component that lost
    every path, or whose contributions overflowed, gets nan.
    """
    config, spec = run.config, run.spec
    _, ev, _, pw = _replication_sample(run, stream, index)
    if pw is None:
        contributions = _bump_contrast(spec, config, ev, run.fd_bump)[:, None, :]
        rejected = np.zeros((ev.average.shape[0], config.n_assets), dtype=bool)
    else:
        family, rejected = spec.family, pw.rejected
        kink, (smooth, remainder) = family.kink(spec.strike), family.split
        z = family.variable(ev.average, ev.floating_strike)[:, None, None]
        slope = family.slope(ev) / config.spots
        # the ramps' discarded np.where branches overflow at extreme widths
        with np.errstate(over="ignore", invalid="ignore"):
            contributions = (smooth(z, kink, widths) * slope[:, None, :]
                             + remainder(z, kink, widths) * pw.values[:, None, :])
        contributions = np.where(rejected[:, None, :], 0.0, contributions)
    paths = contributions.shape[0]
    columns = contributions.reshape(paths, -1).T
    # fsum raises on inf - inf, so a column that overflowed is a nan mean
    sums = np.array([math.fsum(column) if finite else math.nan for column, finite
                     in zip(columns.tolist(), np.isfinite(columns).all(axis=1))])
    counts = rejected.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = (discount(config) * sums.reshape(contributions.shape[1:])
                 / (paths - counts))
    return means, counts


def _pilot_widths(run: _Run, qmc: streams.QmcConfig) -> tuple[np.ndarray, int]:
    """Per-component localization scales plus the pilot path count.

    The digital bandwidth comes from the divergence variance of one
    pilot replication. Ramp widths come from racing the candidate
    widths through the main run's kernel over PILOT_SPLIT
    sub-replications of P / PILOT_SPLIT points, keeping per component
    the width whose sub-replication means scatter least; a single block
    cannot rank widths this way because the point set equidistributes
    each candidate integrand to a different degree than its per-path
    variance suggests. Pilot indices start past the main set so the
    main estimate stays independent of the tuning. A degenerate pilot
    falls back to 1% of the width scale.
    """
    config, spec = run.config, run.spec
    base = qmc.replications
    if spec.family.laplace:
        bundle, _, jets, _ = _replication_sample(run, qmc, base)
        div = wt.reciprocal_divergence(jets, bundle.w_terminal)
        widths, paths = wt.adaptive_bandwidth(div), qmc.points_per_replication
    else:
        candidates = spec.width_scale(config) * np.array(wt.WIDTH_SEARCH_FRACTIONS)
        sub = replace(qmc, points_per_replication=qmc.points_per_replication // PILOT_SPLIT)
        table = np.stack([_replication_means(run, sub, base + r, candidates[:, None])[0]
                          for r in range(PILOT_SPLIT)])
        widths = wt.width_by_replication_spread(table, candidates)
        paths = PILOT_SPLIT * sub.points_per_replication
    bad = ~(np.isfinite(widths) & (widths > 0.0))
    if bad.any():
        fallback = 0.01 * spec.width_scale(config)
        log.warning("pilot variance degenerate for component(s) %s; "
                    "using fallback width %g",
                    ", ".join(str(k + 1) for k in np.flatnonzero(bad)), fallback)
        widths = np.where(bad, fallback, widths)
    return widths, paths


def estimate(config: MarketConfig, spec: PayoffSpec, qmc: streams.QmcConfig,
             method: str = "adaptive", *, use_lt: bool = True,
             loc_fraction: float = 0.01, fd_bump: float = 0.01,
             workers: int = 1,
             lt_build: LtBuild | None = None) -> EstimateReport:
    """Estimate all per-asset deltas of one payoff.

    loc_fraction scales the fixed localization width (method "loc") as
    a fraction of the strike, or of the mean spot for the floating
    strike; fd_bump, in (0, 1), is the relative spot bump of the central
    differences (method "fd"). A prebuilt rotation can be passed to
    amortize its construction over a strike sweep. Method "adaptive"
    needs at least MIN_ADAPTIVE_POINTS points per replication for its
    pilot race; the Malliavin methods need the family's min_dates.
    """
    start = time.perf_counter()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    d = config.nominal_dimension
    if use_lt and lt_build is not None and lt_build.matrix.shape != (d, d):
        raise ValueError(f"lt_build rotation has shape {lt_build.matrix.shape}; "
                         f"the market needs ({d}, {d})")
    if method != "fd" and config.n_dates < spec.family.min_dates:
        raise ValueError(f"{spec.kind} weights need at least {spec.family.min_dates} "
                         f"monitoring dates; the market has {config.n_dates}")
    if method == "loc" and not 0.0 < loc_fraction < math.inf:
        raise ValueError("loc_fraction must be positive and finite")
    if method == "fd" and not 0.0 < fd_bump < 1.0:
        raise ValueError("fd_bump must lie in (0, 1)")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if qmc.replications < 2:
        raise ValueError(
            f"replications must be at least 2 for a standard error; "
            f"got {qmc.replications}")
    if method == "adaptive" and qmc.points_per_replication < MIN_ADAPTIVE_POINTS:
        raise ValueError(
            f"points_per_replication must be at least {MIN_ADAPTIVE_POINTS} "
            f"for the adaptive pilot race; got {qmc.points_per_replication}")

    loadings = vol_loadings(config)
    m = config.n_assets
    if not use_lt:
        lt_build = None
    elif lt_build is None:
        lt_build = build_lt_matrix(config, spec)
    rotation = None if lt_build is None else lt_build.matrix
    run = _Run(config, spec, loadings, spec.weight_matrix(m, config.n_dates),
               path_generator(config, loadings, rotation),
               fd_bump if method == "fd" else None)

    pilot_paths = 0
    widths: np.ndarray | None = None
    if method == "adaptive":
        widths, pilot_paths = _pilot_widths(run, qmc)
    elif method == "loc":
        widths = np.full(m, loc_fraction * spec.width_scale(config))
    points = qmc.points_per_replication
    replicate = partial(_replication_means, run, qmc,
                        widths=None if widths is None else widths[None, :])
    indices = range(qmc.replications)
    if workers == 1:
        results = list(map(replicate, indices))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(replicate, indices))
    replication_means = np.stack([means[0] for means, _ in results])
    rejected_by_component = np.sum([counts for _, counts in results], axis=0)

    total = qmc.replications * points
    over_limit = np.nonzero(rejected_by_component > REJECTION_LIMIT * total)[0]
    if over_limit.size:
        detail = ", ".join(
            f"component {k + 1}: {rejected_by_component[k]}/{total}"
            for k in over_limit)
        raise EstimationError(
            f"degenerate-path rejections exceed {REJECTION_LIMIT:.2%} ({detail})")
    if np.isnan(replication_means).any():
        if any((counts == points).any() for _, counts in results):
            raise EstimationError("a replication lost every path to rejection")
        overflowed = np.flatnonzero(np.isnan(replication_means).any(axis=0))
        raise EstimationError("path contributions overflowed for component(s) "
                              + ", ".join(str(k + 1) for k in overflowed))

    deltas = replication_means.mean(axis=0)
    stderrs = replication_means.std(axis=0, ddof=1) / math.sqrt(qmc.replications)
    scenarios = 2 * m if method == "fd" else 1
    simulated = qmc.replications * points * scenarios + pilot_paths
    settings = {
        "payoff": spec.kind,
        "strike": spec.strike,
        "assets": m,
        "dates": config.n_dates,
        "points": points,
        "replications": qmc.replications,
        "seed": qmc.seed,
        "sampler": qmc.mode,
        "lss_block": qmc.block_sizes(d)[0],
        "use_lt": use_lt,
    }
    if method == "loc":
        settings["loc_fraction"] = loc_fraction
    if method == "fd":
        settings["fd_bump"] = fd_bump
    return EstimateReport(
        deltas=deltas,
        stderrs=stderrs,
        replication_means=replication_means,
        rejected_by_component=rejected_by_component,
        simulated_paths=simulated,
        runtime_seconds=time.perf_counter() - start,
        method=method,
        settings=settings,
        localization_widths=widths,
        lt_build=lt_build,
    )


def _bump_contrast(spec: PayoffSpec, config: MarketConfig, ev: PayoffEval,
                   bump: float) -> np.ndarray:
    """Central-difference contributions with common random numbers,
    (paths, assets), column k for spot k.

    Scaling spot k by (1 +- bump) scales asset k's path multiplicatively,
    so both aggregates shift by exactly bump times their component-k
    parts; no re-simulation is needed to realize the bumped scenarios.
    """
    shift_avg = bump * ev.average_grad
    shift_strike = bump * ev.strike_grad
    average = ev.average[:, None]
    strike_leg = ev.floating_strike[:, None]
    value = spec.family.value
    up = value(spec.strike, average + shift_avg, strike_leg + shift_strike)
    down = value(spec.strike, average - shift_avg, strike_leg - shift_strike)
    return (up - down) / (2.0 * bump * config.spots)
