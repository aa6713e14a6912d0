"""Delta estimation over randomized quasi-Monte Carlo replications.

One run draws R independently scrambled replications of P points,
maps each through the low-discrepancy machinery (and optionally the
dimension-reducing rotation), simulates paths, and averages a per-path
delta contribution. The reported estimate is the mean of the R
replication means; the standard error is their sample standard
deviation over sqrt(R), the usual randomized-QMC construction.

Three methods share one replication kernel: `_replication_sample`
builds the strike-free draws, paths, legs and weights, and
`_replication_means` reduces them through each strike's excess
z - strike, z the largest leg, split once by the family, to discounted
means for its table of localization widths, so a strike sweep draws
each replication once.
"adaptive" and "loc" use the integration-by-parts weights with that
localized split, one expression for every payoff kind, the former
choosing the localization scale per component in a pilot phase, the
latter taking it from a caller-supplied fraction. The pilot race runs
the same kernel over the whole candidate grid on PILOT_SPLIT
sub-replications of P / PILOT_SPLIT points each, so "adaptive" needs
at least 2 * PILOT_SPLIT points per replication.
"fd" is the central finite-difference baseline with common random
numbers, included for cost and accuracy comparisons. What differs
between payoff kinds comes from `payoffs.FAMILIES`.

Replications and pilot sub-replications are independent tasks, each
a function of its index alone. Each sums its paths with one numpy
reduction, whose order is fixed by the array's shape; the pilot's and
then the main run's results come back in order from `map` or, when
workers > 1, from one pool's `map`, and are stacked and averaged by
`np.mean`, so for a fixed seed reports are bit-identical across worker
counts.

Each worker thread draws every task it runs, pilot included, into one
(P, d) float64 buffer kept for the whole call, so a call holds one
buffer per worker thread at any worker count; with workers > 1 the
calling thread draws nothing. The buffer carries a replication through
every stage in place: the uniforms, then the float32 normals that
`qmc.replication_normals` writes over the leading half of their bytes,
then the spot grid that `simulate_paths` writes over the spent
normals, and, once the legs are evaluated, the weighted spot grid of
the basket jets, so the spot grid is valid only until the jets are
built. W(T) and int W ds are two (P, m) arrays of their own. With a
rotation the buffer is the only array of (P, d) size a worker holds:
the rotated product runs in float32 on blocks of
`market.PRODUCT_ROWS` draws, which go to the sgemm as they are, into
one block-sized scratch. The unrotated build adds two temporaries, the
scaled increments and their Brownian cumsum. A sample is therefore
valid only until its thread's next one, and the buffer goes with the
call's run state when it returns; a report holds nothing that views it.
"""
from __future__ import annotations

import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import qmc as streams
from . import weights as wt
from .lt import LtBuild, build_lt_matrix
from .market import (MarketConfig, PathGenerator, path_generator, simulate_paths,
                     vol_loadings)
from .payoffs import PayoffEval, PayoffFamily, PayoffSpec, discount, evaluate
from .qmc import ArgumentError, _check_count

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
    """What every replication of one call shares; spec, the call's
    first, is read for its kind and weights only. fd_bump is set for
    method "fd", whose contributions are bump contrasts; the generator
    holds the loadings. Each worker thread keeps its draw buffer of
    `points` rows, the main run's points per replication, in workspace,
    so it goes with the run."""

    config: MarketConfig
    spec: PayoffSpec
    weight_matrix: np.ndarray
    generator: PathGenerator
    fd_bump: float | None
    points: int
    workspace: threading.local = field(default_factory=threading.local)


def _replication_sample(run: _Run, stream: streams.QmcConfig, index: int):
    """One replication's strike-free (bundle, ev, jets, weights); "fd"
    needs no weight, so its jets and weights are None. The uniforms, the
    float32 normals over their leading bytes, the bundle's spot grid and
    the jets' weighted grid take turns in this thread's float64 buffer,
    allocated on its first sample: the spot grid is valid only until
    the jets are built, which is after `evaluate` has read it, and the
    rest of a bundle until the thread's next sample."""
    config, space = run.config, run.workspace
    if not hasattr(space, "draws"):
        space.draws = np.empty((run.points, config.nominal_dimension))
    draws = space.draws[:stream.points_per_replication]
    normals = streams.replication_normals(stream, index, config.nominal_dimension,
                                          out=draws)
    bundle = simulate_paths(config, run.generator, normals, out=draws)
    ev = evaluate(run.spec, config, bundle)
    if run.fd_bump is not None:
        return bundle, ev, None, None
    # the spot grid is spent once the legs are evaluated, so its memory
    # takes the weighted spot grid
    jets = wt.basket_jets(config, run.generator.loadings, run.weight_matrix, bundle,
                          draws)
    return bundle, ev, jets, run.spec.family.weights(config, jets, bundle)


def _replication_means(run: _Run, stream: streams.QmcConfig, index: int,
                       targets: list) -> tuple[np.ndarray, np.ndarray]:
    """Discounted means of one replication's kept paths per (strike,
    widths) target, (targets, candidates, assets), and its rejection
    counts per component, (assets,).

    A path contributes smooth * slope + remainder * weight, the two
    factors of its family's split at the excess z - strike. widths
    broadcasts against (candidates, assets): (1, assets) for the main
    run's widths or digital bandwidths, (candidates, 1) for the pilot
    race's grid; "fd" ignores it. Rejected paths add exact zeros to one
    numpy sum over the paths; a component that lost every path (0/0),
    or whose contributions or their sum overflowed, gets nan.
    """
    config, family = run.config, run.spec.family
    _, ev, _, pw = _replication_sample(run, stream, index)
    paths = ev.values.shape[1]
    if pw is not None:
        z = ev.variable[:, None, None]
        slope = ev.slope / config.spots
    sums = []
    for strike, widths in targets:
        # the ramps' discarded np.where branches overflow at extreme widths,
        # and so can a sum; the non-finite means become nan below
        with np.errstate(over="ignore", invalid="ignore"):
            if pw is None:
                contributions = _bump_contrast(family, strike, config, ev,
                                               run.fd_bump)[:, None, :]
            else:
                smooth, remainder = family.split(z - strike, widths)
                contributions = np.where(pw.rejected[:, None, :], 0.0,
                                         smooth * slope[:, None, :]
                                         + remainder * pw.values[:, None, :])
            sums.append(contributions.sum(axis=0))
    counts = np.zeros(config.n_assets, dtype=int) if pw is None else pw.rejected.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = discount(config) * np.stack(sums) / (paths - counts)
    means[~np.isfinite(means)] = math.nan
    return means, counts


def _pilot_widths(run: _Run, qmc: streams.QmcConfig, specs: list[PayoffSpec],
                  run_all) -> tuple[list[np.ndarray], int]:
    """Per-component localization scales of each spec plus the pilot
    path count, one spec's.

    The digital bandwidth comes from the divergence variance of one
    pilot replication. Ramp widths come from racing each spec's
    candidate widths through the main run's kernel over PILOT_SPLIT
    sub-replications of P / PILOT_SPLIT points, keeping per component
    the width whose sub-replication means scatter least; a single block
    cannot rank widths this way because the point set equidistributes
    each candidate integrand to a different degree than its per-path
    variance suggests. Pilot indices start past the main set so the
    main estimate stays independent of the tuning. The pilot tasks go
    through `run_all`, the main run's `map`, so they draw into the same
    per-thread buffers; each depends only on its index, so the pool
    returns the serial result. A degenerate pilot falls back to 1% of
    the width scale.
    """
    config = run.config
    base = qmc.replications
    if run.spec.family.laplace:
        def bandwidth(index: int) -> np.ndarray:
            bundle, _, jets, _ = _replication_sample(run, qmc, index)
            return wt.adaptive_bandwidth(wt.reciprocal_divergence(jets, bundle.w_terminal))
        [width] = run_all(bandwidth, [base])
        widths, paths = [width] * len(specs), qmc.points_per_replication
    else:
        fractions = np.array(wt.WIDTH_SEARCH_FRACTIONS)[:, None]
        targets = [(spec.strike, spec.width_scale(config) * fractions) for spec in specs]
        sub = replace(qmc, points_per_replication=qmc.points_per_replication // PILOT_SPLIT)
        table = np.stack([means for means, _ in run_all(
            partial(_replication_means, run, sub, targets=targets),
            range(base, base + PILOT_SPLIT))])
        widths = [wt.width_by_replication_spread(table[:, k], grid[:, 0])
                  for k, (_, grid) in enumerate(targets)]
        paths = PILOT_SPLIT * sub.points_per_replication
    for target, spec in enumerate(specs):
        bad = ~(np.isfinite(widths[target]) & (widths[target] > 0.0))
        fallback = 0.01 * spec.width_scale(config)
        if bad.any():
            log.warning("pilot variance degenerate for component(s) %s; "
                        "using fallback width %g",
                        ", ".join(str(k + 1) for k in np.flatnonzero(bad)), fallback)
        widths[target] = np.where(bad, fallback, widths[target])
    return widths, paths


def estimate(config: MarketConfig, spec: PayoffSpec, qmc: streams.QmcConfig,
             *args, **kwargs) -> EstimateReport:
    """Estimate all per-asset deltas of one payoff: `estimate_sweep` of
    the one spec, with the same further arguments and defaults."""
    return estimate_sweep(config, [spec], qmc, *args, **kwargs)[0]


def estimate_sweep(config: MarketConfig, specs: list[PayoffSpec], qmc: streams.QmcConfig,
                   method: str = "adaptive", *, use_lt: bool = True,
                   loc_fraction: float = 0.01, fd_bump: float = 0.01,
                   workers: int = 1,
                   lt_build: LtBuild | None = None) -> list[EstimateReport]:
    """Estimate each spec's per-asset deltas from one pass of draws; the
    specs may differ only in strike. Each report is bit-identical to its
    spec's `estimate` call and counts in simulated_paths what the sweep draws.

    loc_fraction scales the fixed localization width (method "loc") as
    a fraction of the strike, or of the mean spot for the floating
    strike; fd_bump, in (0, 1), is the relative spot bump of the central
    differences (method "fd"). A prebuilt rotation can be passed to
    amortize its construction over calls; it must be finite and
    orthogonal. Method "adaptive" needs at least MIN_ADAPTIVE_POINTS
    points per replication for its pilot race; the Malliavin methods
    need the family's min_dates. Each
    refusal comes before any work, the LT build included, as an
    ArgumentError naming the parameter, QmcConfig field or market field
    (monitoring_times) it refuses.
    """
    start = time.perf_counter()
    if not specs or any(other.family is not specs[0].family or not np.array_equal(
            other.weights, specs[0].weights) for other in specs):
        raise ArgumentError("specs", "specs must be payoffs that differ only in strike")
    spec, m = specs[0], config.n_assets
    if spec.weights is not None and spec.weights.shape != (m, config.n_dates):
        raise ArgumentError("specs", f"weights shape {spec.weights.shape} does not match "
                            f"(assets, dates) = ({m}, {config.n_dates})")
    if method not in METHODS:
        raise ArgumentError("method",
                            f"unknown method {method!r}; expected one of {METHODS}")
    d = config.nominal_dimension
    if use_lt and lt_build is not None:
        rotation = lt_build.matrix
        if rotation.shape != (d, d):
            raise ArgumentError("lt_build", f"lt_build rotation has shape "
                                f"{rotation.shape}; the market needs ({d}, {d})")
        # R z is standard normal only if R^T R = I: one probe checks it in
        # O(d^2), where forming R^T R would cost O(d^3)
        probe = np.random.default_rng(0).standard_normal(d)
        if not (np.isfinite(rotation).all() and np.linalg.norm(
                rotation.T @ (rotation @ probe) - probe) <= 1e-8 * np.linalg.norm(probe)):
            raise ArgumentError("lt_build", "lt_build rotation must be finite and orthogonal")
    if method != "fd" and config.n_dates < spec.family.min_dates:
        raise ArgumentError("monitoring_times",
                            f"{spec.kind} weights need at least {spec.family.min_dates} "
                            f"monitoring dates; the market has {config.n_dates}")
    if method == "loc" and not 0.0 < loc_fraction < math.inf:
        raise ArgumentError("loc_fraction", "loc_fraction must be positive and finite")
    if method == "fd" and not 0.0 < fd_bump < 1.0:
        raise ArgumentError("fd_bump", "fd_bump must lie in (0, 1)")
    _check_count("workers", workers, 1)
    if qmc.replications < 2:
        raise ArgumentError("replications", "replications must be at least 2 for a "
                            f"standard error; got {qmc.replications}")
    if method == "adaptive" and qmc.points_per_replication < MIN_ADAPTIVE_POINTS:
        raise ArgumentError("points_per_replication", "points_per_replication must be "
                            f"at least {MIN_ADAPTIVE_POINTS} for the adaptive pilot "
                            f"race; got {qmc.points_per_replication}")

    if not use_lt:
        lt_build = None
    elif lt_build is None:
        lt_build = build_lt_matrix(config, spec)
    rotation = None if lt_build is None else lt_build.matrix
    run = _Run(config, spec, spec.weight_matrix(m, config.n_dates),
               path_generator(config, vol_loadings(config), rotation),
               fd_bump if method == "fd" else None, qmc.points_per_replication)

    pilot_paths = 0
    widths: list[np.ndarray | None] = [None] * len(specs)
    if method == "loc":
        widths = [np.full(m, loc_fraction * other.width_scale(config)) for other in specs]
    # the pilot runs on the main run's pool, so at any worker count only
    # the workers hold draw buffers
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run_all = map if pool is None else pool.map
        if method == "adaptive":
            widths, pilot_paths = _pilot_widths(run, qmc, specs, run_all)
        results = list(run_all(partial(_replication_means, run, qmc, targets=[
            (other.strike, None if scales is None else scales[None, :])
            for other, scales in zip(specs, widths)]), range(qmc.replications)))
    points = qmc.points_per_replication
    rejected_by_component = np.sum([counts for _, counts in results], axis=0)

    total = qmc.replications * points
    over_limit = np.nonzero(rejected_by_component > REJECTION_LIMIT * total)[0]
    if over_limit.size:
        detail = ", ".join(
            f"component {k + 1}: {rejected_by_component[k]}/{total}"
            for k in over_limit)
        raise EstimationError(
            f"degenerate-path rejections exceed {REJECTION_LIMIT:.2%} ({detail})")
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
    reports = []
    for target, (spec, scales) in enumerate(zip(specs, widths)):
        replication_means = np.stack([means[target, 0] for means, _ in results])
        if np.isnan(replication_means).any():
            if any((counts == points).any() for _, counts in results):
                raise EstimationError("a replication lost every path to rejection")
            overflowed = np.flatnonzero(np.isnan(replication_means).any(axis=0))
            raise EstimationError("path contributions overflowed for component(s) "
                                  + ", ".join(str(k + 1) for k in overflowed))
        silent = np.flatnonzero((replication_means == 0.0).all(axis=0))
        if silent.size:
            log.warning("strike %g: every replication mean is 0 for component(s) %s; "
                        "no path contributed", spec.strike,
                        ", ".join(str(k + 1) for k in silent))
        reports.append(EstimateReport(
            deltas=replication_means.mean(axis=0),
            stderrs=replication_means.std(axis=0, ddof=1) / math.sqrt(qmc.replications),
            replication_means=replication_means,
            rejected_by_component=rejected_by_component,
            simulated_paths=simulated,
            runtime_seconds=time.perf_counter() - start,
            method=method,
            settings=dict(settings, strike=spec.strike),
            localization_widths=scales,
            lt_build=lt_build,
        ))
    return reports


def _bump_contrast(family: PayoffFamily, strike: float, config: MarketConfig,
                   ev: PayoffEval, bump: float) -> np.ndarray:
    """Central-difference contributions at one strike with common random
    numbers, (paths, assets), column k for spot k.

    Scaling spot k by (1 +- bump) scales asset k's path multiplicatively,
    so every leg shifts by exactly bump times its component-k part; no
    re-simulation is needed to realize the bumped scenarios, whose z is
    the largest shifted leg.
    """
    shift = bump * ev.grads
    legs = ev.values[:, :, None]
    up = family.value(strike, (legs + shift).max(axis=0))
    down = family.value(strike, (legs - shift).max(axis=0))
    return (up - down) / (2.0 * bump * config.spots)
