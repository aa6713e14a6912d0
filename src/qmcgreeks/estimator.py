"""Delta estimation over randomized quasi-Monte Carlo replications.

One run draws R independently scrambled replications of P points,
maps each through the low-discrepancy machinery (and optionally the
dimension-reducing rotation), simulates paths, and averages a per-path
delta contribution. The reported estimate is the mean of the R
replication means; the standard error is their sample standard
deviation over sqrt(R), the usual randomized-QMC construction.

Three methods share this loop. "adaptive" and "loc" use the
integration-by-parts weights with a localized payoff split, the former
choosing the localization scale per component in a pilot phase, the
latter taking it from a caller-supplied fraction.
"fd" is the central finite-difference baseline with common random
numbers, included for cost and accuracy comparisons.

Replications are independent tasks; results land in preallocated
slots and are combined in replication order with compensated
summation, so reports are bit-identical for a fixed seed regardless
of the worker count.
"""
from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import qmc as streams
from . import weights as wt
from .lt import LtBuild, build_lt_matrix
from .market import MarketConfig, PathBundle, simulate_paths, vol_loadings
from .payoffs import (PayoffEval, PayoffSpec, discount, evaluate,
                      payoff_value_from_aggregates)

log = logging.getLogger(__name__)

METHODS = ("adaptive", "loc", "fd")
REJECTION_LIMIT = 1e-4
PILOT_SPLIT = 8


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
    finite-difference method.
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
    lt_first_objective: float | None
    lt_fallback_columns: int | None

    @property
    def rejected_paths(self) -> int:
        return int(self.rejected_by_component.sum())


def _localization_frame(spec: PayoffSpec, config: MarketConfig,
                        ev: PayoffEval):
    """Smoothing variable (paths,), its kink location, and the
    pathwise slopes (paths, assets), column k for spot k."""
    x = config.spots
    if spec.kind == "call":
        return ev.average, spec.strike, ev.average_grad / x
    if spec.kind == "floating":
        slope = (ev.average_grad - ev.strike_grad) / x
        return ev.average - ev.floating_strike, 0.0, slope
    if spec.kind == "best_of":
        on_average = ev.average >= ev.floating_strike
        slope = np.where(on_average[:, None], ev.average_grad,
                         ev.strike_grad) / x
        return np.maximum(ev.average, ev.floating_strike), spec.strike, slope
    raise ValueError(f"no localization frame for payoff kind {spec.kind!r}")


def _component_weights(spec: PayoffSpec, config: MarketConfig,
                  loadings: np.ndarray, weight_matrix: np.ndarray,
                  bundle: PathBundle, ev: PayoffEval,
                  bandwidths: np.ndarray | None) -> wt.PathWeights:
    """Weights of every component for one bundle, (paths, assets)."""
    terminal = bundle.w_terminal
    if spec.kind == "best_of":
        return wt.best_of_weight(config, loadings, weight_matrix, bundle)
    if spec.kind == "floating":
        blocks = wt.floating_strike_blocks(config, loadings, weight_matrix,
                                           bundle)
        return wt.skorohod_weight(blocks, terminal)
    blocks = wt.fixed_strike_blocks(config, loadings, weight_matrix, bundle)
    if spec.kind == "digital":
        return wt.digital_weight(blocks, terminal, ev.average, spec.strike,
                                 bandwidths)
    return wt.skorohod_weight(blocks, terminal)


def _width_scale(spec: PayoffSpec, config: MarketConfig) -> float:
    """Reference level localization fractions multiply.

    The strike for fixed-strike payoffs; the floating kind has none,
    so the mean spot stands in.
    """
    if spec.kind == "floating":
        return float(config.spots.mean())
    return spec.strike


def _fallback_width(spec: PayoffSpec, config: MarketConfig) -> float:
    return 0.01 * _width_scale(spec, config)


def _checked_width(width: float | None, spec: PayoffSpec,
                   config: MarketConfig, component: int) -> float:
    if width is None or not np.isfinite(width) or width <= 0.0:
        width = _fallback_width(spec, config)
        log.warning("pilot variance degenerate for component %d; "
                    "using fallback width %g", component + 1, width)
    return width


def _pilot_widths(config: MarketConfig, spec: PayoffSpec,
                  qmc: streams.QmcConfig, loadings: np.ndarray,
                  weight_matrix: np.ndarray, rotation: np.ndarray | None,
                  pilot_reuse: bool) -> tuple[np.ndarray, int]:
    """Per-component localization scales plus the pilot path count.

    The digital bandwidth comes from one pilot replication. Ramp
    widths instead come from racing the candidate widths over a
    handful of small sub-replications and keeping, per component, the
    width whose sub-replication means scatter least; a single pooled
    block cannot rank widths this way because the point set
    equidistributes each candidate integrand to a different degree
    than its per-path variance suggests. Pilot indices start past the
    main set so the main estimate stays independent of the tuning;
    pilot_reuse starts them at 0, recycling prefixes of the main
    draws.
    """
    base = 0 if pilot_reuse else qmc.replications
    n = config.n_assets
    widths = np.empty(n)
    if spec.kind == "digital":
        normals = streams.replication_normals(qmc, base)
        bundle = simulate_paths(config, loadings, normals, rotation)
        blocks = wt.fixed_strike_blocks(config, loadings, weight_matrix, bundle)
        div = wt.reciprocal_divergence(blocks, bundle.w_terminal)
        for k in range(n):
            keep = ~div.rejected[:, k]
            width = wt.adaptive_bandwidth(div.values[keep, k]) if keep.any() else None
            widths[k] = _checked_width(width, spec, config, k)
        return widths, qmc.points_per_replication

    scale = _width_scale(spec, config)
    sub_points = qmc.points_per_replication // PILOT_SPLIT
    if sub_points < 2:
        # too few points to split; fall back to one pooled block
        normals = streams.replication_normals(qmc, base)
        bundle = simulate_paths(config, loadings, normals, rotation)
        ev = evaluate(spec, config, bundle)
        pw = _component_weights(spec, config, loadings, weight_matrix,
                                bundle, ev, None)
        variable, center, slope = _localization_frame(spec, config, ev)
        for k in range(n):
            width = wt.adaptive_width_search(variable, center, slope[:, k],
                                             pw.values[:, k], pw.rejected[:, k],
                                             scale)
            widths[k] = _checked_width(width, spec, config, k)
        return widths, qmc.points_per_replication

    candidates = scale * np.array(wt.WIDTH_SEARCH_FRACTIONS)
    sub = replace(qmc, points_per_replication=sub_points)
    rep_means = np.empty((PILOT_SPLIT, len(candidates), n))
    for r in range(PILOT_SPLIT):
        normals = streams.replication_normals(sub, base + r)
        bundle = simulate_paths(config, loadings, normals, rotation)
        ev = evaluate(spec, config, bundle)
        pw = _component_weights(spec, config, loadings, weight_matrix,
                                bundle, ev, None)
        variable, center, slope = _localization_frame(spec, config, ev)
        # (paths, candidates) ramps, combined with (paths, assets) slopes
        # and weights into (paths, candidates, assets) contributions
        smooth = wt.smoothed_indicator(variable[:, None], center, candidates)
        remainder = wt.localization_remainder(variable[:, None], center, candidates)
        contribution = (smooth[:, :, None] * slope[:, None, :]
                        + remainder[:, :, None] * pw.values[:, None, :])
        keep = ~pw.rejected
        totals = np.where(keep[:, None, :], contribution, 0.0).sum(axis=0)
        with np.errstate(invalid="ignore"):
            # a component that lost every path gets nan, which the race skips
            rep_means[r] = totals / keep.sum(axis=0)
    for k in range(n):
        width = wt.width_by_replication_spread(rep_means[:, :, k], candidates)
        widths[k] = _checked_width(width, spec, config, k)
    return widths, PILOT_SPLIT * sub_points


def estimate(config: MarketConfig, spec: PayoffSpec, qmc: streams.QmcConfig,
             method: str = "adaptive", *, use_lt: bool = True,
             loc_fraction: float = 0.01, fd_bump: float = 0.01,
             workers: int = 1, pilot_reuse: bool = False,
             lt_build: LtBuild | None = None) -> EstimateReport:
    """Estimate all per-asset deltas of one payoff.

    loc_fraction scales the fixed localization width (method "loc") as
    a fraction of the strike, or of the mean spot for the floating
    strike; fd_bump is the relative spot bump of the central
    differences (method "fd"). A prebuilt rotation can be passed to
    amortize its construction over a strike sweep.
    """
    start = time.perf_counter()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if qmc.nominal_dimension != config.nominal_dimension:
        raise ValueError(
            f"point dimension {qmc.nominal_dimension} does not match "
            f"assets*dates = {config.nominal_dimension}")
    if method == "loc" and loc_fraction <= 0.0:
        raise ValueError("loc_fraction must be positive")
    if method == "fd" and fd_bump <= 0.0:
        raise ValueError("fd_bump must be positive")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if qmc.replications < 2:
        raise ValueError(
            f"replications must be at least 2 for a standard error; "
            f"got {qmc.replications}")

    loadings = vol_loadings(config)
    m = config.n_assets
    weight_matrix = spec.weight_matrix(m, config.n_dates)
    rotation = None
    lt_objective = None
    lt_fallbacks = None
    if use_lt:
        if lt_build is None:
            lt_build = build_lt_matrix(config, spec, loadings)
        rotation = lt_build.matrix
        lt_objective = lt_build.first_objective
        lt_fallbacks = lt_build.fallback_columns

    pilot_paths = 0
    widths: np.ndarray | None = None
    if method == "adaptive":
        widths, pilot_count = _pilot_widths(config, spec, qmc, loadings,
                                            weight_matrix, rotation,
                                            pilot_reuse)
        if not pilot_reuse:
            pilot_paths = pilot_count
    elif method == "loc":
        widths = np.full(m, loc_fraction * _width_scale(spec, config))

    disc = discount(config)
    points = qmc.points_per_replication

    def one_replication(index: int) -> tuple[np.ndarray, np.ndarray]:
        normals = streams.replication_normals(qmc, index)
        bundle = simulate_paths(config, loadings, normals, rotation)
        ev = evaluate(spec, config, bundle)
        if method == "fd":
            values = _bump_contrast(spec, config, ev, fd_bump)
            rejected = np.zeros((points, m), dtype=bool)
        else:
            pw = _component_weights(spec, config, loadings, weight_matrix,
                                    bundle, ev,
                                    widths if spec.kind == "digital" else None)
            rejected = pw.rejected
            if spec.kind == "digital":
                values = np.where(rejected, 0.0, ev.value[:, None] * pw.values)
            else:
                variable, center, slope = _localization_frame(spec, config, ev)
                smooth = wt.smoothed_indicator(variable[:, None], center, widths)
                remainder = wt.localization_remainder(variable[:, None], center, widths)
                values = np.where(rejected, 0.0, smooth * slope + remainder * pw.values)
        counts = rejected.sum(axis=0)
        means = np.empty(m)
        for k in range(m):
            keep_count = points - int(counts[k])
            if keep_count == 0:
                means[k] = np.nan
                continue
            column = values[:, k]
            if counts[k]:
                column = column[~rejected[:, k]]
            means[k] = disc * math.fsum(column) / keep_count
        return means, counts

    replication_means = np.empty((qmc.replications, m))
    rejected = np.zeros((qmc.replications, m), dtype=np.int64)
    indices = range(qmc.replications)
    if workers == 1:
        results = [one_replication(index) for index in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_replication, indices))
    for index, (means, rej) in zip(indices, results):
        replication_means[index] = means
        rejected[index] = rej

    rejected_by_component = rejected.sum(axis=0)
    total = qmc.replications * points
    over_limit = np.nonzero(rejected_by_component > REJECTION_LIMIT * total)[0]
    if over_limit.size:
        detail = ", ".join(
            f"component {k + 1}: {rejected_by_component[k]}/{total}"
            for k in over_limit)
        raise EstimationError(
            f"degenerate-path rejections exceed {REJECTION_LIMIT:.2%} ({detail})")
    if np.isnan(replication_means).any():
        raise EstimationError("a replication lost every path to rejection")

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
        "lss_block": qmc.lss_block_dimension,
        "use_lt": use_lt,
        "pilot_reuse": pilot_reuse,
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
        lt_first_objective=lt_objective,
        lt_fallback_columns=lt_fallbacks,
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
    up = payoff_value_from_aggregates(spec.kind, spec.strike,
                                      average + shift_avg,
                                      strike_leg + shift_strike)
    down = payoff_value_from_aggregates(spec.kind, spec.strike,
                                        average - shift_avg,
                                        strike_leg - shift_strike)
    return (up - down) / (2.0 * bump * config.spots)


def finite_difference_delta(config: MarketConfig, spec: PayoffSpec,
                            qmc: streams.QmcConfig, bump: float = 0.01,
                            *, use_lt: bool = True, workers: int = 1,
                            lt_build: LtBuild | None = None) -> EstimateReport:
    """Central finite differences; see `estimate` with method "fd"."""
    return estimate(config, spec, qmc, "fd", use_lt=use_lt, fd_bump=bump,
                    workers=workers, lt_build=lt_build)
