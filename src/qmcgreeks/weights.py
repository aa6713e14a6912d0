"""Integration-by-parts delta weights for path-average payoffs.

A spot delta of E[psi] moves the differentiation off the (possibly
discontinuous) payoff and onto the path law: the derivative becomes
E[psi * weight] for a Skorohod-integral weight built from the path.
Every weight here comes from one identity, the Skorohod integral
against driver k of a path functional F times a deterministic
direction u,

    delta(F u) = F delta(u) - int_0^T u_s D_s F ds,

for one of two directions: u = 1, where delta(u) = W_k(T), and u = s,
where delta(u) = int_0^T s dW_k = T W_k(T) - int_0^T W_k ds. `_skorohod`
is that identity, and each weight is jet arithmetic building F plus
one call of it per term.

The integrands are built from six linear path functionals per
component, the basket jets of `basket_jets`: term and avg, asset k's
own parts of the terminal mean and of the running average, which are
the pathwise spot derivatives of those two legs, and int_term,
int_avg, s_int_term, s_int_avg, the integrals int_0^T D_s ds and
int_0^T s D_s ds of the two legs' Malliavin derivatives. The
families read them as follows:

* call:     delta(avg / int_avg), which the digital shares;
* floating: delta((avg - term) / (int_avg - int_term));
* best_of:  a genuine two-dimensional inversion over all six jets,
  delta(dual_term term) - delta(dual_avg avg s), the first in
  direction 1 and the second in direction s.

The tests keep the expanded closed forms as oracles, such as
(g/d)(W_k(T) + di/d) - gi/d for a ratio of jets g/d with derivative
integrals gi and di.

Every weight is built for all components at once: jets and weights
carry a component axis, shape (paths, assets), so one call per path
bundle yields every delta's weight. All jets start from the same
per-asset date sums sum_j w_ij S_i(t_j) t_j^r, one matmul over the
date axis; contracting those with the loading matrix (or its square)
gives the jets of every component together.

The weights only ever use two linear functionals of a jet's
derivative process: int_0^T D_s ds and int_0^T s D_s ds. Product and
quotient rules are linear in the derivative, so jets carry just those
two projections instead of one sample per interval. For a linear
combination of path values the projections need no suffix sums over
dates, because for any interval vector v

    sum_l v_l sum_{j >= l} c_j S(t_j) = sum_j c_j S(t_j) cumsum(v)_j,

and cumsum of the interval lengths is t_j, of the interval moments
(t_l^2 - t_{l-1}^2)/2 it is t_j^2/2. The tests check the projections
against a per-interval reference jet with one suffix-sum sample per
monitoring interval.

Localization splits a payoff of z, its largest leg, into a part
differentiated pathwise and a remainder the weight carries,
smooth(z) * slope + remainder(z) * weight, which is where most of the
variance reduction comes from; the split is exact in expectation for
any scale. Each split reads only the excess z - strike, never the
strike, and returns both factors at once: `ramp_split` serves the
kinks, `laplace_split` the digital's step.
Adaptive rules pick the ramp half-width from the spread of pilot
sub-replication means and the Laplace bandwidth from the pilot variance
of delta(1 / int_avg), for every component at once.

Denominators vanish only on a null set, but finite arithmetic can
realize them. Paths with a tiny denominator are flagged for rejection
unless the matching numerator jet vanishes too, in which case the
weight is an honest zero (a floating strike over a single asset and
date, say, where the payoff is identically zero).
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .market import MarketConfig, PathBundle
from .qmc import _output

DEGENERATE_FRACTION = 1e-12


# ---------------------------------------------------------------------------
# first-order jets


@dataclass(frozen=True, eq=False)
class MalliavinJet:
    """Path functional with its Malliavin derivative samples.

    samples has the shape of value plus one leading axis. The
    derivative with respect to a driver is constant on each monitoring
    interval, so one sample per interval determines it; any fixed
    linear functionals of the derivative can stand in for those
    samples, since every rule below is linear in them. The basket jets
    have value (paths, assets) and samples (2, paths, assets): the
    projections int D_s ds and int s D_s ds that the Skorohod integrals
    in the directions 1 and s read. Arithmetic follows the exact
    product and quotient rules, which is what makes chained expressions
    like (a*d - b*c) / e differentiable without symbolic work.
    """

    value: np.ndarray
    samples: np.ndarray

    def _lift(self, other) -> "MalliavinJet":
        if isinstance(other, MalliavinJet):
            return other
        const = np.broadcast_to(np.asarray(other, dtype=np.float64), self.value.shape)
        return MalliavinJet(value=const, samples=np.zeros_like(self.samples))

    def __sub__(self, other) -> "MalliavinJet":
        o = self._lift(other)
        return MalliavinJet(self.value - o.value, self.samples - o.samples)

    def __mul__(self, other) -> "MalliavinJet":
        o = self._lift(other)
        return MalliavinJet(self.value * o.value,
                            self.samples * o.value + self.value * o.samples)

    def __truediv__(self, other) -> "MalliavinJet":
        o = self._lift(other)
        return MalliavinJet(self.value / o.value,
                            (self.samples * o.value - self.value * o.samples)
                            / o.value ** 2)

    def __rtruediv__(self, other) -> "MalliavinJet":
        return self._lift(other).__truediv__(self)


@dataclass(frozen=True, eq=False)
class PathWeights:
    """Weight values with a rejection mask for degenerate paths.

    Both are (paths, assets), column k for the delta in spot k.
    """

    values: np.ndarray
    rejected: np.ndarray


# positions of the two derivative projections in a basket jet's samples
_DT, _SDS = 0, 1


class BasketJets(NamedTuple):
    """The six linear path functionals every weight is built from.

    Column k of each value is the functional for driver k; samples[_DT]
    and samples[_SDS] hold its projections int D^k ds and int s D^k ds.
    term and avg are asset k's own legs (divided by x_k); the other four
    weight every asset i by the loading sigma_ik, so their projections
    carry sigma_ik^2.
    """

    term: MalliavinJet
    avg: MalliavinJet
    int_term: MalliavinJet
    int_avg: MalliavinJet
    s_int_term: MalliavinJet
    s_int_avg: MalliavinJet


def _date_sums(spot_grid: np.ndarray, weights: np.ndarray, times: np.ndarray,
               powers: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """sums[r, p, i] = sum_j w_ij S_i(t_j) t_j^r for r < powers.

    One (powers, dates) @ (dates, paths*assets) product serves every
    jet of every component. The weighted grid goes into `scratch` when
    it is given, a C-contiguous float64 (paths, assets * dates) array.
    """
    p, m, n = spot_grid.shape
    # vander builds t^r by repeated products; numpy's SIMD array power
    # rounds non-dyadic dates differently from machine to machine
    vectors = np.ascontiguousarray(np.vander(times, powers, increasing=True).T)
    if scratch is not None:
        scratch = _output(scratch, (p, m * n), "scratch").reshape(p, m, n)
    weighted = np.multiply(spot_grid, weights, out=scratch).reshape(p * m, n)
    return (vectors @ weighted.T).reshape(powers, p, m)


def basket_jets(config: MarketConfig, loadings: np.ndarray, weights: np.ndarray,
                bundle: PathBundle, scratch: np.ndarray | None = None) -> BasketJets:
    """One bundle's basket jets for every component at once.

    The only (paths, assets * dates) array they need, the weighted spot
    grid, goes into `scratch` when it is given, a C-contiguous float64
    array of that shape that the caller no longer reads, such as spent
    draws; nothing returned views it. So a worker that passes its draw
    buffer holds no array of that size beyond its two draw buffers."""
    big_t = config.maturity
    m = config.n_assets
    x = config.spots
    own = np.diag(loadings) / x
    squared = loadings * loadings
    # one strided gather; every later use of the last date reads it
    # contiguously, several times faster
    terminal = np.ascontiguousarray(bundle.spot_grid[:, :, -1])
    sums = _date_sums(bundle.spot_grid, weights, config.monitoring_times, 5, scratch)
    squared_sums = sums[2:] @ squared
    # the projections of a date sum over t_j^r are the sums over t_j^(r+1)
    # and half t_j^(r+2); a terminal leg's are its last-date value times the
    # cumsums of (interval lengths, interval moments), T and T^2/2
    halves = np.array([1.0, 0.5])[:, None, None]
    ends = np.array([big_t, big_t * big_t / 2.0])[:, None, None]
    term = MalliavinJet(terminal / (m * x), terminal * own / m * ends)
    avg = MalliavinJet(sums[0] / x, sums[1:3] * own * halves)
    cross_terminal = terminal @ squared * (big_t / m)
    int_term = MalliavinJet(terminal @ loadings * (big_t / m), cross_terminal * ends)
    int_avg = MalliavinJet(sums[1] @ loadings, squared_sums[:2] * halves)
    s_int_term = MalliavinJet(int_term.value * (big_t / 2.0),
                              int_term.samples * (big_t / 2.0))
    s_int_avg = MalliavinJet(sums[2] @ loadings / 2.0, squared_sums[1:] * (halves / 2.0))
    return BasketJets(term, avg, int_term, int_avg, s_int_term, s_int_avg)


# ---------------------------------------------------------------------------
# the Skorohod integral and the single-variable weights


def _scaled_tolerance(values: np.ndarray) -> np.ndarray:
    """Per-component tolerance: the mean is over the path axis only."""
    return DEGENERATE_FRACTION * np.mean(np.abs(values), axis=0)


def _degenerate_split(grad: MalliavinJet,
                      denom: MalliavinJet) -> tuple[np.ndarray, np.ndarray]:
    """Degenerate-denominator mask and its rejected subset.

    A degenerate path is kept (with weight zero) only when grad and the
    time integral of its derivative vanish with the denominator, making
    the true weight zero.
    """
    grad_int = grad.samples[_DT]
    degenerate = np.abs(denom.value) <= _scaled_tolerance(denom.value)
    harmless = (degenerate
                & (np.abs(grad.value) <= _scaled_tolerance(grad.value))
                & (np.abs(grad_int) <= _scaled_tolerance(grad_int)))
    return degenerate, degenerate & ~harmless


def _skorohod(integrand: MalliavinJet, driver: np.ndarray, projection: int) -> np.ndarray:
    """delta(F u) = F delta(u) - int_0^T u_s D_s F ds for F = integrand.

    The direction u is 1, with driver W_k(T) and projection _DT, or s,
    with driver T W_k(T) - int_0^T W_k ds and projection _SDS; column k
    is the integral against driver k."""
    return integrand.value * driver - integrand.samples[projection]


def skorohod_weight(grad: MalliavinJet, denom: MalliavinJet,
                    w_terminal: np.ndarray) -> PathWeights:
    """delta(g/d) in the direction 1, zero on degenerate paths.

    w_terminal holds W_k(T) in column k, like the jets.
    """
    degenerate, rejected = _degenerate_split(grad, denom)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = _skorohod(grad / denom, w_terminal, _DT)
    return PathWeights(np.where(degenerate, 0.0, values), rejected)


def reciprocal_divergence(jets: BasketJets, w_terminal: np.ndarray) -> PathWeights:
    """delta(1/int_avg) in the direction 1, with the call weight's mask.

    Mean zero by duality; its sample variance over the paths the call
    weight keeps sets the digital bandwidth.
    """
    degenerate, rejected = _degenerate_split(jets.avg, jets.int_avg)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = _skorohod(1.0 / jets.int_avg, w_terminal, _DT)
    return PathWeights(np.where(degenerate, 0.0, values), rejected)


# ---------------------------------------------------------------------------
# two-variable weight for the best_of payoff


def best_of_weight(config: MarketConfig, jets: BasketJets,
                   bundle: PathBundle) -> PathWeights:
    """Weight for payoffs of both the running average and the terminal mean.

    Differentiating through max(average, terminal mean) needs a pair of
    dual processes, one per variable, obtained by inverting the 2x2
    system of their Malliavin covariations; the weight is the
    difference of the two resulting Skorohod integrals,
    delta(dual_term term) in the direction 1 minus delta(dual_avg avg s)
    in the direction s.
    """
    if config.n_dates < 2:
        raise ValueError(
            "best_of weights need at least two monitoring dates; the "
            "covariation system is singular on a single date")
    term, avg, int_term, int_avg, s_int_term, s_int_avg = jets
    rejected = ((np.abs(avg.value) <= _scaled_tolerance(avg.value))
                | (np.abs(term.value) <= _scaled_tolerance(term.value)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = int_term * s_int_avg - int_avg * s_int_term
        rejected |= np.abs(det.value) <= _scaled_tolerance(det.value)
        dual_term = (s_int_avg - s_int_term * (avg / term)) / det
        dual_avg = (int_avg * (term / avg) - int_term) / det
        # the product jets below fit in det's room
        del det
        w = bundle.w_terminal
        values = (_skorohod(dual_term * term, w, _DT)
                  - _skorohod(dual_avg * avg,
                              config.maturity * w - bundle.w_time_integral, _SDS))
    return PathWeights(values=np.where(rejected, 0.0, values), rejected=rejected)


# ---------------------------------------------------------------------------
# localization


def ramp_split(excess: np.ndarray, half_width) -> tuple[np.ndarray, np.ndarray]:
    """(ramp, remainder) of (z - strike)^+ at the excess e = z - strike: the
    ramp rises from 0 to 1 across [-w, w], and the remainder, e^+ minus
    the ramp's antiderivative (zero at and below -w), lives on that band
    only, so its weight term contributes nothing away from the kink."""
    ramp = np.clip((excess + half_width) / (2.0 * half_width), 0.0, 1.0)
    inside = (excess + half_width) ** 2 / (4.0 * half_width)
    return ramp, np.maximum(excess, 0.0) - np.where(
        excess <= -half_width, 0.0, np.where(excess >= half_width, excess, inside))


def laplace_split(excess: np.ndarray, bandwidth) -> tuple[np.ndarray, np.ndarray]:
    """(slope, remainder) of the step 1{z >= strike} at the excess e: the
    remainder 1{e >= 0} exp(-e/b) is the part the weight carries, 1 at
    the tie, which pays; the slope 1{e > 0} exp(-e/b) / b, 0 at the tie,
    is the derivative of the step minus it."""
    if (np.asarray(bandwidth) <= 0.0).any():
        raise ValueError("bandwidth must be positive")
    kernel = np.exp(-np.abs(excess / bandwidth))
    return (np.where(excess > 0.0, kernel / bandwidth, 0.0),
            np.where(excess >= 0.0, kernel, 0.0))


# ---------------------------------------------------------------------------
# adaptive parameters from pilot samples


def adaptive_bandwidth(divergence: PathWeights) -> np.ndarray:
    """Reciprocal root of Var[divergence] over each component's kept
    paths, (assets,); nan where the variance is degenerate."""
    # C-contiguous (assets, paths) rows sum exactly as np.var sums a column
    keep = np.ascontiguousarray(~divergence.rejected.T)
    values = np.where(keep, np.ascontiguousarray(divergence.values.T), 0.0)
    count = keep.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        deviation = np.where(keep, values - (values.sum(axis=1) / count)[:, None], 0.0)
        variance = (deviation * deviation).sum(axis=1) / (count - 1)
        # scalar powers: numpy's SIMD array power rounds differently
        root = np.array([v ** -0.5 for v in variance])
    return np.where(np.isfinite(variance) & (variance > 0.0), root, np.nan)


WIDTH_SEARCH_FRACTIONS = (0.01, 0.02, 0.05, 0.10, 0.20, 0.50)


def width_by_replication_spread(rep_means: np.ndarray,
                                widths: Sequence[float]) -> np.ndarray:
    """Candidate width whose pilot replication means scatter least,
    per component, (assets,).

    rep_means is (sub-replications, candidates, assets): one pilot
    sub-replication per row, one candidate width per column. The
    column spread estimates the error the main run would see at that
    width, so minimizing it targets the reported standard error
    directly; per-path variance cannot, since it is blind to how much
    of each integrand the point set equidistributes away. Columns with
    a non-finite mean are skipped and ties go to the narrowest width.
    nan marks a component with no usable column (or only constant
    ones), where the caller should fall back.
    """
    means = np.asarray(rep_means, dtype=np.float64)
    widths = np.asarray(widths, dtype=np.float64)
    if means.ndim != 3 or means.shape[1] != widths.size:
        raise ValueError("rep_means must be (sub-replications, candidates, "
                         "assets) with one candidate per width")
    if means.shape[0] < 2:
        return np.full(means.shape[2], np.nan)
    order = np.argsort(widths, kind="stable")
    with np.errstate(invalid="ignore", over="ignore"):
        spread = np.std(means[:, order], axis=0, ddof=1)
    spread[np.isnan(spread)] = np.inf
    best_spread = spread.min(axis=0)
    usable = np.isfinite(best_spread) & (best_spread > 0.0)
    return np.where(usable, widths[order][np.argmin(spread, axis=0)], np.nan)
