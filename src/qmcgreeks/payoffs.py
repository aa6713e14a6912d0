"""Arithmetic-average basket payoffs and their pathwise delta pieces.

Four payoff kinds share the running average m = sum_ij w_ij S_i(t_j):

* ``call``            (m - K)^+            fixed strike K
* ``floating``        (m - S_bar(T)/M)^+   strike is the terminal basket mean
* ``digital``         1{m >= K}            cash-or-nothing, ties pay
* ``best_of``         (max(m, S_bar(T)/M) - K)^+

where S_bar(T)/M is the equally weighted terminal spot average. The
floating and best_of kinds force uniform averaging weights w_ij =
1/(M N); the fixed-strike kinds accept any weight matrix.

Every per-path quantity needed by both the estimators and the bump
reruns is computed once here: the average, the floating strike, and the
per-component gradients d(average)/d(log x_k) and d(strike)/d(log x_k),
from which spot deltas follow by dividing out x_k.

Everything else that differs between the kinds sits in one
`PayoffFamily` record per kind, `FAMILIES`: the strike-free variable z
the payoff pays on and its pathwise slopes, the strike legs, the
localization split, the weight and the rotation driver's legs. The
strike enters only through `kink`: each payoff is (z - kink)^+ but the
digital's step 1{z >= kink}, the call's record with the Laplace split in
place of the ramp split, and `split` reads only the excess z - kink. No
weight builder reads the strike either: each reads the bundle's basket
jets, `weights.basket_jets`; call and floating take the Skorohod
integral of one jet ratio, best_of its two-variable inversion. The
estimator and the rotation never test a kind by name.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import weights as wt
from .market import MarketConfig, PathBundle


@dataclass(frozen=True, eq=False)
class PayoffSpec:
    """Payoff kind, strike, and averaging weights.

    weights is (assets, dates), non-negative, summing to one. Passing
    ``None`` selects the uniform matrix; the floating and best_of kinds
    accept nothing else because their strike legs are defined through
    the equally weighted terminal average.
    """

    kind: str
    strike: float
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown payoff kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "strike", float(self.strike))
        if not math.isfinite(self.strike):
            raise ValueError("strike must be finite")
        if self.family.fixed_strike and self.strike <= 0:
            raise ValueError("fixed-strike payoffs need a positive strike")
        if self.weights is not None:
            w = np.array(self.weights, dtype=np.float64)
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)
            if self.family.floating_leg:
                raise ValueError(
                    f"{self.kind} payoffs use uniform weights; leave weights unset")
            if w.ndim != 2:
                raise ValueError("weights must be a (assets, dates) matrix")
            if (w < 0).any():
                raise ValueError("weights must be non-negative")
            if not math.isclose(float(w.sum()), 1.0, rel_tol=0, abs_tol=1e-10):
                raise ValueError("weights must sum to one")

    @property
    def family(self) -> PayoffFamily:
        return FAMILIES[self.kind]

    def width_scale(self, config: MarketConfig) -> float:
        """Level localization fractions multiply: the strike, or the
        mean spot for the floating kind, which has none."""
        if self.family.fixed_strike:
            return self.strike
        return float(config.spots.mean())

    def weight_matrix(self, n_assets: int, n_dates: int) -> np.ndarray:
        if self.weights is None:
            return np.full((n_assets, n_dates), 1.0 / (n_assets * n_dates))
        if self.weights.shape != (n_assets, n_dates):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match "
                f"(assets, dates) = ({n_assets}, {n_dates})")
        return np.asarray(self.weights)


@dataclass(frozen=True, eq=False)
class PayoffEval:
    """Per-path aggregates for one replication; none reads the strike.

    average_grad[p, k] = x_k * d(average)/d(x_k), the part of the
    average carried by asset k; likewise strike_grad for the floating
    strike leg (zero for fixed-strike kinds). Spot deltas divide these
    by x_k, and multiplicative bump reruns rescale them in place of
    re-simulating paths.
    """

    average: np.ndarray
    floating_strike: np.ndarray
    average_grad: np.ndarray
    strike_grad: np.ndarray


def evaluate(spec: PayoffSpec, config: MarketConfig, bundle: PathBundle) -> PayoffEval:
    w = spec.weight_matrix(config.n_assets, config.n_dates)
    spot = bundle.spot_grid
    average = np.einsum("pij,ij->p", spot, w)
    average_grad = np.einsum("pij,ij->pi", spot, w)
    if spec.family.floating_leg:
        m = config.n_assets
        floating_strike = spot[:, :, -1].mean(axis=1)
        strike_grad = spot[:, :, -1] / m
    else:
        floating_strike = np.zeros(average.shape[0])
        strike_grad = np.zeros_like(average_grad)
    return PayoffEval(average=average, floating_strike=floating_strike,
                      average_grad=average_grad, strike_grad=strike_grad)


def discount(config: MarketConfig) -> float:
    return math.exp(-config.rate * config.maturity)


# ---------------------------------------------------------------------------
# the per-kind record


@dataclass(frozen=True, eq=False)
class PayoffFamily:
    """What sets one payoff kind apart; the weight builders and the
    localization split look up their `weights` functions when they run,
    so a wrapper installed on that module sees every call."""

    # (average, floating_strike) -> the strike-free variable z paid on
    variable: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # ev -> pathwise x_k * dz/dx_k, (paths, assets)
    slope: Callable[[PayoffEval], np.ndarray]
    # strike leg on the equally weighted terminal mean; uniform weights only
    floating_leg: bool
    # pays against a positive strike, which also sets the width scale
    fixed_strike: bool
    # pays the step 1{z >= kink} with the Laplace split, whose bandwidth
    # comes from the divergence variance, not (z - kink)^+ with the ramp
    laplace: bool
    # (config, jets, bundle) -> every component's weight, (paths, assets),
    # from the bundle's basket jets
    weights: Callable[..., wt.PathWeights]
    # averaging weights -> coefficients c of each leg sum_ij c_ij S_i(t_j)
    # of the rotation driver, which is the largest leg
    legs: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    min_dates: int = 1  # monitoring dates the Malliavin weight needs

    def kink(self, strike: float) -> float:
        """Where z is localized: the strike, or 0 for the floating kind."""
        return strike if self.fixed_strike else 0.0

    def value(self, strike: float, average: np.ndarray, leg: np.ndarray) -> np.ndarray:
        """The payoff of the aggregates: (z - kink)^+, or the step."""
        excess = self.variable(average, leg) - self.kink(strike)
        if self.laplace:
            return (excess >= 0.0).astype(np.float64)
        return np.maximum(excess, 0.0)

    def split(self, excess: np.ndarray, widths) -> tuple[np.ndarray, np.ndarray]:
        """(pathwise factor, weight factor) of the localization at the
        excess z - kink: the Laplace split for the step, else the ramp."""
        return (wt.laplace_split if self.laplace else wt.ramp_split)(excess, widths)


def _terminal_leg(weights: np.ndarray) -> np.ndarray:
    """Coefficients of the equally weighted terminal spot mean."""
    m, n = weights.shape
    leg = np.zeros((m, n))
    leg[:, -1] = 1.0 / m
    return leg


_CALL = PayoffFamily(
    variable=lambda average, leg: average, slope=lambda ev: ev.average_grad,
    floating_leg=False, fixed_strike=True, laplace=False,
    weights=lambda config, jets, bundle: wt.skorohod_weight(
        jets.avg, jets.int_avg, bundle.w_terminal),
    legs=lambda weights: (weights,))

FAMILIES = {
    "call": _CALL,
    "floating": PayoffFamily(
        variable=np.subtract, slope=lambda ev: ev.average_grad - ev.strike_grad,
        floating_leg=True, fixed_strike=False, laplace=False,
        weights=lambda config, jets, bundle: wt.skorohod_weight(
            jets.avg - jets.term, jets.int_avg - jets.int_term, bundle.w_terminal),
        legs=lambda weights: (weights - _terminal_leg(weights),)),
    "digital": replace(_CALL, laplace=True),
    "best_of": PayoffFamily(
        variable=np.maximum, slope=lambda ev: np.where(
            (ev.average >= ev.floating_strike)[:, None], ev.average_grad, ev.strike_grad),
        floating_leg=True, fixed_strike=True, laplace=False,
        weights=lambda config, jets, bundle: wt.best_of_weight(config, jets, bundle),
        legs=lambda weights: (weights, _terminal_leg(weights)), min_dates=2),
}
KINDS = tuple(FAMILIES)
