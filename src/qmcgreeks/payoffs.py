"""Arithmetic-average basket payoffs and their pathwise delta pieces.

Every payoff kind pays on z, the largest of its legs, linear path
functionals sum_ij c_ij S_i(t_j); m = sum_ij w_ij S_i(t_j) is the
running average:

* ``call``            (m - K)^+            fixed strike K
* ``floating``        (m - S_bar(T)/M)^+   strike is the terminal basket mean
* ``digital``         1{m >= K}            cash-or-nothing, ties pay
* ``best_of``         (max(m, S_bar(T)/M) - K)^+

where S_bar(T)/M is the equally weighted terminal spot average; best_of
has the two legs m and S_bar(T)/M, the others one. The floating and
best_of kinds force uniform averaging weights w_ij = 1/(M N); the
fixed-strike kinds accept any weight matrix.

`evaluate` computes each leg's gradients x_k d(leg)/d(x_k) once per
replication, over the span of dates the leg reads, and its value as
their row sum; z's pathwise slope is the largest leg's gradient, the
first leg's on a tie. The same largest leg drives the rotation in `lt`.

Everything else that differs between the kinds sits in one
`PayoffFamily` record per kind, `FAMILIES`: the legs, the localization
split and the weight. Each payoff is (z - K)^+ but the digital's step
1{z >= K}, the call's record with the Laplace split in place of the
ramp split; the floating kind has no strike, so its K is 0. `split`
reads only the excess z - K, and no weight builder reads the strike:
each reads the bundle's basket jets, `weights.basket_jets`; call and
floating take the Skorohod integral of one jet ratio, best_of its
two-variable inversion. Neither `evaluate`, the estimator nor the
rotation tests a kind by name.
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

    The strike is positive, or 0 for the floating kind, which has none.
    weights is (assets, dates), non-negative, summing to one. Passing
    ``None`` selects the uniform matrix; the floating and best_of kinds
    accept nothing else because their terminal legs are defined through
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
        if not self.family.fixed_strike and self.strike != 0:
            raise ValueError(
                f"strike needs a fixed-strike payoff; {self.kind} has no strike")
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
    """Per-path legs for one replication; none reads the strike.

    grads[l, p, k] = x_k * d(leg l)/d(x_k) on path p, the part of leg l
    carried by asset k, and values[l, p] = leg l, their row sum. Spot
    deltas divide the gradients by x_k, and multiplicative bump reruns
    rescale them in place of re-simulating paths.
    """

    values: np.ndarray
    grads: np.ndarray

    @property
    def variable(self) -> np.ndarray:
        """z, the largest leg of each path."""
        return self.values.max(axis=0)

    @property
    def slope(self) -> np.ndarray:
        """x_k * dz/dx_k, (paths, assets): the largest leg's gradient,
        the first leg's on a tie."""
        largest = self.values.argmax(axis=0)
        return self.grads[largest, np.arange(largest.size)]


def evaluate(spec: PayoffSpec, config: MarketConfig, bundle: PathBundle) -> PayoffEval:
    legs = spec.family.legs(spec.weight_matrix(config.n_assets, config.n_dates))
    spot = bundle.spot_grid
    grads = np.empty((len(legs), spot.shape[0], config.n_assets))
    for coeff, grad in zip(legs, grads):
        # a leg is contracted over the span of dates it reads, a view of the
        # grid: best_of's terminal leg reads one date of the whole grid
        reads = coeff.any(axis=0)
        span = slice(reads.argmax(), reads.size - reads[::-1].argmax())
        np.einsum("pij,ij->pi", spot[:, :, span], coeff[:, span], out=grad)
    return PayoffEval(values=grads.sum(axis=2), grads=grads)


def discount(config: MarketConfig) -> float:
    return math.exp(-config.rate * config.maturity)


# ---------------------------------------------------------------------------
# the per-kind record


@dataclass(frozen=True, eq=False)
class PayoffFamily:
    """What sets one payoff kind apart; the weight builders and the
    localization split look up their `weights` functions when they run,
    so a wrapper installed on that module sees every call."""

    # a leg on the equally weighted terminal mean; uniform weights only
    floating_leg: bool
    # pays against a positive strike, which also sets the width scale
    fixed_strike: bool
    # pays the step 1{z >= strike} with the Laplace split, whose bandwidth
    # comes from the divergence variance, not (z - strike)^+ with the ramp
    laplace: bool
    # (config, jets, bundle) -> every component's weight, (paths, assets),
    # from the bundle's basket jets
    weights: Callable[..., wt.PathWeights]
    # averaging weights -> coefficients c of each leg sum_ij c_ij S_i(t_j);
    # the payoff variable z and the rotation driver are the largest leg
    legs: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    min_dates: int = 1  # monitoring dates the Malliavin weight needs

    def value(self, strike: float, z: np.ndarray) -> np.ndarray:
        """The payoff of the variable z: (z - strike)^+, or the step."""
        excess = z - strike
        if self.laplace:
            return (excess >= 0.0).astype(np.float64)
        return np.maximum(excess, 0.0)

    def split(self, excess: np.ndarray, widths) -> tuple[np.ndarray, np.ndarray]:
        """(pathwise factor, weight factor) of the localization at the
        excess z - strike: the Laplace split for the step, else the ramp."""
        return (wt.laplace_split if self.laplace else wt.ramp_split)(excess, widths)


def _terminal_leg(weights: np.ndarray) -> np.ndarray:
    """Coefficients of the equally weighted terminal spot mean."""
    m, n = weights.shape
    leg = np.zeros((m, n))
    leg[:, -1] = 1.0 / m
    return leg


_CALL = PayoffFamily(
    floating_leg=False, fixed_strike=True, laplace=False,
    weights=lambda config, jets, bundle: wt.skorohod_weight(
        jets.avg, jets.int_avg, bundle.w_terminal),
    legs=lambda weights: (weights,))

FAMILIES = {
    "call": _CALL,
    "floating": PayoffFamily(
        floating_leg=True, fixed_strike=False, laplace=False,
        weights=lambda config, jets, bundle: wt.skorohod_weight(
            jets.avg - jets.term, jets.int_avg - jets.int_term, bundle.w_terminal),
        legs=lambda weights: (weights - _terminal_leg(weights),)),
    "digital": replace(_CALL, laplace=True),
    "best_of": PayoffFamily(
        floating_leg=True, fixed_strike=True, laplace=False,
        weights=lambda config, jets, bundle: wt.best_of_weight(config, jets, bundle),
        legs=lambda weights: (weights, _terminal_leg(weights)), min_dates=2),
}
KINDS = tuple(FAMILIES)
