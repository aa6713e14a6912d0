import inspect
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmcgreeks import weights as wt
from qmcgreeks.market import MarketConfig, path_generator, simulate_paths, vol_loadings
from qmcgreeks.payoffs import PayoffSpec

import helpers


def _config(n_assets=2, n_dates=3, vols=(0.2, 0.4), rho=0.5):
    correlation = np.full((n_assets, n_assets), rho)
    np.fill_diagonal(correlation, 1.0)
    return MarketConfig(spots=np.full(n_assets, 100.0), rate=0.05,
                        vols=np.asarray(vols), correlation=correlation,
                        maturity=1.0,
                        monitoring_times=np.arange(1, n_dates + 1) / n_dates)


def _normals(config, n_paths, seed):
    return np.random.default_rng(seed).standard_normal(
        (n_paths, config.nominal_dimension))


def _bundle(config, n_paths=64, seed=0):
    loadings = vol_loadings(config)
    return loadings, simulate_paths(config, path_generator(config, loadings),
                                    _normals(config, n_paths, seed))


# ---------------------------------------------------------------------------
# jets

_finite = st.floats(min_value=-10.0, max_value=10.0,
                    allow_nan=False, allow_infinity=False)
_away_from_zero = st.floats(min_value=0.5, max_value=10.0).map(
    lambda x: x if x > 0 else 1.0)


@given(arrays(np.float64, (3, 4), elements=_finite),
       arrays(np.float64, (3, 4), elements=_finite),
       arrays(np.float64, (3, 4), elements=_away_from_zero),
       arrays(np.float64, (3, 4), elements=_finite))
@settings(max_examples=60, deadline=None)
def test_jet_product_and_quotient_rules(fv, fs, gv, gs):
    f = wt.MalliavinJet(value=fv[:, 0], samples=fs.T)
    g = wt.MalliavinJet(value=gv[:, 0], samples=gs.T)
    product = f * g
    assert np.allclose(product.samples,
                       (fs * gv[:, :1] + fv[:, :1] * gs).T, rtol=1e-12, atol=1e-12)
    quotient = f / g
    back = quotient * g
    assert np.allclose(back.value, f.value, rtol=1e-9, atol=1e-9)
    assert np.allclose(back.samples, f.samples, rtol=1e-9, atol=1e-9)


def test_jet_scalar_arithmetic():
    f = wt.MalliavinJet(value=np.array([2.0, 3.0]),
                        samples=np.array([[1.0, 0.5], [0.0, 2.0]]))
    shifted = f - 5.0
    assert np.array_equal(shifted.value, [-3.0, -2.0])
    assert np.array_equal(shifted.samples, f.samples)
    scaled = f * 2.0
    assert np.array_equal(scaled.value, [4.0, 6.0])
    assert np.array_equal(scaled.samples, 2.0 * f.samples)
    flipped = 1.0 / f
    assert np.allclose(flipped.value, [0.5, 1.0 / 3.0])
    assert np.allclose(flipped.samples, -f.samples / f.value ** 2)


def test_lincomb_jet_value_and_integrals():
    config = _config()
    loadings, bundle = _bundle(config, n_paths=8)
    coeff = np.array([[0.2, 0.3, 0.1], [0.15, 0.05, 0.2]])
    jet = helpers.lincomb_jet(bundle.spot_grid, loadings, coeff, 0)
    direct = np.einsum("pij,ij->p", bundle.spot_grid, coeff)
    assert np.allclose(jet.value, direct, rtol=1e-14)
    # suffix structure: sample on the last interval only sees the last date
    last = np.einsum("pi,i->p", bundle.spot_grid[:, :, -1] * coeff[:, -1],
                     loadings[:, 0])
    assert np.allclose(jet.samples[-1], last, rtol=1e-14)
    # integrals are plain quadratures of the samples
    dt = config.interval_lengths
    assert np.allclose(helpers.time_integral(jet, dt), dt @ jet.samples)
    moments = np.diff(config.grid ** 2) / 2.0
    assert np.allclose(helpers.weighted_time_integral(jet, moments),
                       moments @ jet.samples)


def _increment_bump_derivative(config, loadings, normals, functional,
                               component, h=1e-6):
    """Central difference of a path functional in each driver-k increment."""
    n = config.n_dates
    increments = helpers.driver_increments(config, normals)
    out = []
    for interval in range(n):
        up = increments.copy()
        down = increments.copy()
        up[:, component, interval] += h
        down[:, component, interval] -= h
        f_up = functional(helpers.paths_from_increments(config, loadings, up))
        f_down = functional(helpers.paths_from_increments(config, loadings, down))
        out.append((f_up - f_down) / (2.0 * h))
    return np.stack(out)


def test_lincomb_jet_samples_match_increment_bumps():
    config = _config()
    loadings, bundle = _bundle(config, n_paths=16, seed=1)
    coeff = np.random.default_rng(2).uniform(0.05, 0.4, size=(2, 3))

    def functional(b):
        return np.einsum("pij,ij->p", b.spot_grid, coeff)

    for component in range(2):
        jet = helpers.lincomb_jet(bundle.spot_grid, loadings, coeff, component)
        bumped = _increment_bump_derivative(config, loadings, _normals(config, 16, 1),
                                            functional, component)
        assert np.allclose(jet.samples, bumped, rtol=1e-4)


def test_composite_jet_matches_increment_bumps():
    # quotient and product rules chained through a rational expression
    config = _config()
    loadings, bundle = _bundle(config, n_paths=12, seed=3)
    c1 = np.full((2, 3), 1.0 / 6.0)
    c2 = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.7]])

    def build(b):
        f = helpers.lincomb_jet(b.spot_grid, loadings, c1, 0)
        g = helpers.lincomb_jet(b.spot_grid, loadings, c2, 0)
        return (f * g - 2.0) / (g - f)

    def functional(b):
        return build(b).value

    jet = build(bundle)
    bumped = _increment_bump_derivative(config, loadings, _normals(config, 12, 3),
                                        functional, 0)
    assert np.allclose(jet.samples, bumped, rtol=1e-4)


# ---------------------------------------------------------------------------
# block construction


class _Blocks(NamedTuple):
    grad: np.ndarray
    denom: np.ndarray
    grad_int: np.ndarray
    denom_int: np.ndarray


def _jet_blocks(grad, denom):
    """The closed-form blocks read off a weight's two jets."""
    return _Blocks(grad.value, denom.value, grad.samples[0], denom.samples[0])


def _fixed_blocks(config, loadings, weights, bundle):
    jets = wt.basket_jets(config, loadings, weights, bundle)
    return _jet_blocks(jets.avg, jets.int_avg)


def _loop_fixed_blocks(config, loadings, weights, bundle, k):
    spot = bundle.spot_grid
    t = config.monitoring_times
    p = spot.shape[0]
    grad = np.zeros(p)
    denom = np.zeros(p)
    grad_int = np.zeros(p)
    denom_int = np.zeros(p)
    for i in range(config.n_assets):
        for j in range(config.n_dates):
            s = spot[:, i, j]
            denom += weights[i, j] * s * t[j] * loadings[i, k]
            denom_int += weights[i, j] * s * t[j] ** 2 * loadings[i, k] ** 2
            if i == k:
                grad += weights[i, j] * s / config.spots[k]
                grad_int += (weights[i, j] * s * t[j] * loadings[k, k]
                             / config.spots[k])
    return grad, denom, grad_int, denom_int


def test_fixed_blocks_against_loop_oracle():
    config = _config()
    loadings, bundle = _bundle(config, n_paths=32, seed=4)
    weights = np.random.default_rng(5).dirichlet(np.ones(6)).reshape(2, 3)
    blocks = _fixed_blocks(config, loadings, weights, bundle)
    for k in range(2):
        grad, denom, grad_int, denom_int = _loop_fixed_blocks(
            config, loadings, weights, bundle, k)
        assert np.allclose(blocks.grad[:, k], grad, rtol=1e-13)
        assert np.allclose(blocks.denom[:, k], denom, rtol=1e-13)
        assert np.allclose(blocks.grad_int[:, k], grad_int, rtol=1e-13)
        assert np.allclose(blocks.denom_int[:, k], denom_int, rtol=1e-13)


def test_floating_blocks_subtract_terminal_leg():
    config = _config()
    loadings, bundle = _bundle(config, n_paths=32, seed=6)
    weights = np.full((2, 3), 1.0 / 6.0)
    m = config.n_assets
    big_t = config.maturity
    terminal = bundle.spot_grid[:, :, -1]
    jets = wt.basket_jets(config, loadings, weights, bundle)
    fixed = _jet_blocks(jets.avg, jets.int_avg)
    floating = _jet_blocks(jets.avg - jets.term, jets.int_avg - jets.int_term)
    for k in range(2):
        x_k = config.spots[k]
        assert np.allclose(fixed.grad[:, k] - floating.grad[:, k],
                           terminal[:, k] / (m * x_k), rtol=1e-13)
        assert np.allclose(fixed.denom[:, k] - floating.denom[:, k],
                           terminal @ loadings[:, k] * big_t / m, rtol=1e-13)
        assert np.allclose(fixed.grad_int[:, k] - floating.grad_int[:, k],
                           terminal[:, k] * big_t * loadings[k, k] / (m * x_k),
                           rtol=1e-13)
        assert np.allclose(fixed.denom_int[:, k] - floating.denom_int[:, k],
                           terminal @ loadings[:, k] ** 2 * big_t ** 2 / m,
                           rtol=1e-13)


def test_equal_loadings_single_date_ratio():
    # with one date and a loading column constant across assets, the
    # denominator pair collapses to denom_int/denom = T * loading
    config = _config(n_dates=1)
    loadings = vol_loadings(config)
    assert loadings[0, 0] == pytest.approx(loadings[1, 0])
    _, bundle = _bundle(config, n_paths=16, seed=7)
    weights = np.array([[0.3], [0.7]])
    blocks = _fixed_blocks(config, loadings, weights, bundle)
    ratio = blocks.denom_int[:, 0] / blocks.denom[:, 0]
    assert np.allclose(ratio, config.maturity * loadings[0, 0], rtol=1e-14)


def test_single_asset_single_date_weight_identity():
    config = MarketConfig(spots=[100.0], rate=0.05, vols=[0.2],
                          correlation=[[1.0]], maturity=1.0,
                          monitoring_times=[1.0])
    loadings, bundle = _bundle(config, n_paths=128, seed=8)
    weights = np.array([[1.0]])
    jets = wt.basket_jets(config, loadings, weights, bundle)
    pw = wt.skorohod_weight(jets.avg, jets.int_avg, bundle.w_terminal)
    expected = bundle.w_terminal / (100.0 * 1.0 * 0.2)
    assert not pw.rejected.any()
    assert np.abs(pw.values - expected).max() < 1e-12


def test_degenerate_paths_are_rejected_unless_harmless():
    def jet(value, integral):
        # samples hold [int D ds, int s D ds]; the weight reads the first
        return wt.MalliavinJet(value, np.stack((integral, np.zeros_like(value))))

    ones = np.ones(4)
    pw = wt.skorohod_weight(jet(np.array([1.0, 0.0, 1.0, 1.0]), np.array([1.0, 0.0, 1.0, 1.0])),
                            jet(np.array([1.0, 0.0, 0.0, 1.0]), ones), ones)
    assert pw.rejected.tolist() == [False, False, True, False]
    assert pw.values[1] == 0.0
    assert pw.values[2] == 0.0
    assert np.isfinite(pw.values).all()
    # each component keeps its own tolerance: a column on a tiny scale is
    # not degenerate because another column is large
    scaled = np.outer(np.ones(4), [1.0, 1e-20])
    pw = wt.skorohod_weight(jet(scaled, scaled), jet(scaled, scaled), np.ones((4, 2)))
    assert not pw.rejected.any()
    assert (pw.values != 0.0).all()


def test_zero_mean_of_bare_weights():
    config = _config(n_assets=2, n_dates=2)
    loadings, bundle = _bundle(config, n_paths=4096, seed=9)
    weights = np.full((2, 2), 0.25)
    terminal = bundle.w_terminal
    jets = wt.basket_jets(config, loadings, weights, bundle)
    fixed = wt.skorohod_weight(jets.avg, jets.int_avg, terminal)
    floating = wt.skorohod_weight(jets.avg - jets.term,
                                  jets.int_avg - jets.int_term, terminal)
    divergence = wt.reciprocal_divergence(jets, terminal)
    best = wt.best_of_weight(config, jets, bundle)
    for k in range(2):
        for pw in (fixed, floating, divergence, best):
            assert not pw.rejected[:, k].any()
            values = pw.values[:, k]
            stderr = values.std(ddof=1) / math.sqrt(values.size)
            assert abs(values.mean()) < 3.0 * stderr


def _digital_split(jets, w_terminal, average, strike, bandwidth):
    """The digital's localized contribution, P * slope + R * delta(avg/int_avg),
    zero on rejected paths as in the estimator."""
    pw = wt.skorohod_weight(jets.avg, jets.int_avg, w_terminal)
    slope, remainder = wt.laplace_split(average[:, None] - strike, bandwidth)
    values = slope * jets.avg.value + remainder * pw.values
    return wt.PathWeights(np.where(pw.rejected, 0.0, values), pw.rejected)


def test_digital_weight_limits():
    config = _config()
    loadings, bundle = _bundle(config, n_paths=64, seed=10)
    weights = np.full((2, 3), 1.0 / 6.0)
    jets = wt.basket_jets(config, loadings, weights, bundle)
    blocks = _jet_blocks(jets.avg, jets.int_avg)
    terminal = bundle.w_terminal
    average = np.einsum("pij,ij->p", bundle.spot_grid, weights)
    divergence = terminal / blocks.denom + blocks.denom_int / blocks.denom ** 2
    unlocalized = blocks.grad * divergence - blocks.grad_int / blocks.denom
    wide = _digital_split(jets, terminal, average, 100.0, 1e12)
    paying = (average >= 100.0)[:, None]
    assert 0 < paying.sum() < paying.size
    assert np.allclose(wide.values, paying * unlocalized, rtol=1e-9, atol=1e-9)
    with pytest.raises(ValueError, match="bandwidth"):
        wt.laplace_split(average - 100.0, 0.0)


def test_digital_weight_at_exact_tie_uses_zero_slope():
    config = _config()
    loadings, bundle = _bundle(config, n_paths=8, seed=11)
    weights = np.full((2, 3), 1.0 / 6.0)
    jets = wt.basket_jets(config, loadings, weights, bundle)
    blocks = _jet_blocks(jets.avg, jets.int_avg)
    terminal = bundle.w_terminal
    average = np.einsum("pij,ij->p", bundle.spot_grid, weights)
    strike = float(average[3])  # make one path an exact tie
    pw = _digital_split(jets, terminal, average, strike, 2.0)
    divergence = (terminal[3, 0] / blocks.denom[3, 0]
                  + blocks.denom_int[3, 0] / blocks.denom[3, 0] ** 2)
    expected = (blocks.grad[3, 0] * divergence
                - blocks.grad_int[3, 0] / blocks.denom[3, 0])
    assert pw.values[3, 0] == pytest.approx(expected, rel=1e-12)


def test_date_sums_are_repeated_products():
    # 1/3 and 2/3 are not dyadic; numpy's SIMD array power rounds some
    # of their powers differently from repeated multiplication
    times = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0])
    spot = 100.0 * np.exp(0.1 * np.random.default_rng(23).standard_normal((5, 2, 3)))
    weights = np.full((2, 3), 1.0 / 6.0)
    powers = np.array([np.ones(3), times, times * times, times * times * times,
                       times * times * times * times])
    expected = (powers @ (spot * weights).reshape(10, 3).T).reshape(5, 5, 2)
    assert np.array_equal(wt._date_sums(spot, weights, times, 5), expected)


@pytest.mark.parametrize("kind", ["call", "floating", "digital", "best_of"])
def test_jets_built_in_a_scratch_equal_the_allocated_ones(kind):
    config = _config(n_assets=3, n_dates=5, vols=(0.1, 0.25, 0.4))
    loadings = vol_loadings(config)
    weights = PayoffSpec(kind, 0.0 if kind == "floating" else 100.0).weight_matrix(3, 5)
    d = config.nominal_dimension
    rotation = np.linalg.qr(np.random.default_rng(8).standard_normal((d, d)))[0]
    normals = _normals(config, 64, seed=9)
    for generator in (path_generator(config, loadings),
                      path_generator(config, loadings, rotation)):
        bundle = simulate_paths(config, generator, normals)
        allocated = wt.basket_jets(config, loadings, weights, bundle)
        scratch = np.full((64, d), np.nan)
        reused = wt.basket_jets(config, loadings, weights, bundle, scratch)
        # a worker builds the jets in its spot grid's own memory, which the
        # weighted grid overwrites; so this build comes last
        own = wt.basket_jets(config, loadings, weights, bundle,
                             bundle.spot_grid.reshape(64, d))
        for name, want, got, in_grid in zip(wt.BasketJets._fields, allocated, reused,
                                            own):
            for jet in (got, in_grid):
                assert np.array_equal(jet.value, want.value), name
                assert np.array_equal(jet.samples, want.samples), name
        # nothing returned views the scratch
        scratch[:] = np.nan
        assert all(np.isfinite(jet.value).all() and np.isfinite(jet.samples).all()
                   for jet in reused)


def test_a_scratch_that_cannot_take_the_weighted_grid_is_refused():
    config = _config()
    loadings, bundle = _bundle(config, n_paths=16)
    weights = np.full((2, 3), 1.0 / 6.0)
    d = config.nominal_dimension
    for scratch in (np.empty((16, d + 1)), np.empty((8, d)),
                    np.empty((16, d), dtype=np.float32),
                    np.empty((d, 16)).T, np.empty((16, 2 * d))[:, ::2]):
        with pytest.raises(ValueError, match=rf"scratch must be .* shape \(16, {d}\)"):
            wt.basket_jets(config, loadings, weights, bundle, scratch)


# ---------------------------------------------------------------------------
# best_of weight internals


def test_best_of_needs_two_dates():
    config = _config(n_dates=1)
    loadings, bundle = _bundle(config, n_paths=4, seed=12)
    with pytest.raises(ValueError, match="two monitoring dates"):
        wt.best_of_weight(config, wt.basket_jets(config, loadings,
                                                 np.array([[0.5], [0.5]]), bundle),
                          bundle)


def test_best_of_block_jets_match_hand_integrals():
    config = _config()
    loadings, bundle = _bundle(config, n_paths=16, seed=13)
    m, n = config.n_assets, config.n_dates
    t = config.monitoring_times
    big_t = config.maturity
    spot = bundle.spot_grid
    terminal = spot[:, :, -1]
    weights = np.full((m, n), 1.0 / (m * n))
    k = 1
    col = loadings[:, k]
    # time-weighted integrals of the two drivers' derivative processes
    coeff_b1 = np.zeros((m, n))
    coeff_b1[:, -1] = big_t ** 2 * col / (2.0 * m)
    coeff_b2 = weights * (t * t)[None, :] * col[:, None] / 2.0
    jet_b1 = helpers.lincomb_jet(spot, loadings, coeff_b1, k)
    jet_b2 = helpers.lincomb_jet(spot, loadings, coeff_b2, k)
    hand_b1 = terminal @ col * big_t ** 2 / (2.0 * m)
    hand_b2 = np.einsum("pij,ij,j,i->p", spot, weights, t ** 2, col) / 2.0
    assert np.allclose(jet_b1.value, hand_b1, rtol=1e-13)
    assert np.allclose(jet_b2.value, hand_b2, rtol=1e-13)


def test_best_of_weight_is_finite_and_scale_consistent():
    config = _config()
    loadings, bundle = _bundle(config, n_paths=512, seed=14)
    weights = np.full((2, 3), 1.0 / 6.0)
    pw = wt.best_of_weight(config, wt.basket_jets(config, loadings, weights, bundle),
                           bundle)
    assert not pw.rejected.any()
    assert np.isfinite(pw.values).all()
    # the weight carries dimension 1/spot so that E[payoff * weight] has
    # the dimension of a delta; doubling every spot must halve it exactly
    doubled = MarketConfig(spots=2.0 * config.spots, rate=config.rate,
                           vols=config.vols, correlation=config.correlation,
                           maturity=config.maturity,
                           monitoring_times=config.monitoring_times)
    bundle2 = simulate_paths(doubled, path_generator(doubled, loadings),
                             _normals(config, 512, 14))
    pw2 = wt.best_of_weight(doubled, wt.basket_jets(doubled, loadings, weights, bundle2),
                            bundle2)
    assert np.allclose(pw2.values, 0.5 * pw.values, rtol=1e-12)


def _reference_tolerance(values):
    return wt.DEGENERATE_FRACTION * np.mean(np.abs(values))


def _reference_single_variable(config, loadings, weights, bundle, k, family,
                               strike=None, bandwidth=None):
    """One component's fixed, floating or digital weight and rejections,
    from the loop-oracle blocks."""
    grad, denom, grad_int, denom_int = _loop_fixed_blocks(
        config, loadings, weights, bundle, k)
    if family == "floating":
        m, big_t, x_k = config.n_assets, config.maturity, config.spots[k]
        terminal = bundle.spot_grid[:, :, -1]
        col = loadings[:, k]
        grad = grad - terminal[:, k] / (m * x_k)
        denom = denom - terminal @ col * big_t / m
        grad_int = grad_int - terminal[:, k] * big_t * loadings[k, k] / (m * x_k)
        denom_int = denom_int - terminal @ (col * col) * big_t ** 2 / m
    degenerate = np.abs(denom) <= _reference_tolerance(denom)
    harmless = (degenerate & (np.abs(grad) <= _reference_tolerance(grad))
                & (np.abs(grad_int) <= _reference_tolerance(grad_int)))
    safe = np.where(degenerate, 1.0, denom)
    divergence = bundle.w_terminal[:, k] / safe + denom_int / safe ** 2
    values = grad * divergence - grad_int / safe
    if family == "digital":
        average = np.einsum("pij,ij->p", bundle.spot_grid, weights)
        z = (average - strike) / bandwidth
        kernel = np.exp(-np.abs(z))
        values = kernel * values + grad / bandwidth * np.sign(z) * kernel
    return np.where(degenerate, 0.0, values), degenerate & ~harmless


def _reference_best_of_jets(config, loadings, weights, bundle, k):
    """The six best_of functionals of driver k as per-interval jets."""
    m, n = config.n_assets, config.n_dates
    t = config.monitoring_times
    big_t = config.maturity
    col = loadings[:, k]
    x_k = config.spots[k]
    term = np.zeros((m, n))
    term[k, -1] = 1.0 / (m * x_k)
    avg = np.zeros((m, n))
    avg[k] = weights[k] / x_k
    int_term = np.zeros((m, n))
    int_term[:, -1] = big_t * col / m
    int_avg = weights * t[None, :] * col[:, None]
    s_term = np.zeros((m, n))
    s_term[:, -1] = big_t * big_t * col / (2.0 * m)
    s_avg = weights * (t * t)[None, :] * col[:, None] / 2.0
    return [helpers.lincomb_jet(bundle.spot_grid, loadings, coeff, k)
            for coeff in (term, avg, int_term, int_avg, s_term, s_avg)]


def _reference_best_of(config, loadings, weights, bundle, k):
    """One component's best_of weight and rejections from per-interval jets."""
    term, avg, int_term, int_avg, s_int_term, s_int_avg = _reference_best_of_jets(
        config, loadings, weights, bundle, k)
    dt = config.interval_lengths
    moments = np.diff(config.grid ** 2) / 2.0
    rejected = ((np.abs(avg.value) <= _reference_tolerance(avg.value))
                | (np.abs(term.value) <= _reference_tolerance(term.value)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = int_term * s_int_avg - int_avg * s_int_term
        rejected |= np.abs(det.value) <= _reference_tolerance(det.value)
        dual_term = (s_int_avg - s_int_term * (avg / term)) / det
        dual_avg = (int_avg * (term / avg) - int_term) / det
        w_k = bundle.w_terminal[:, k]
        first = (dual_term.value * term.value * w_k
                 - dual_term.value * helpers.time_integral(term, dt)
                 - term.value * helpers.time_integral(dual_term, dt))
        s_increment = config.maturity * w_k - bundle.w_time_integral[:, k]
        second = (dual_avg.value * avg.value * s_increment
                  - avg.value * helpers.weighted_time_integral(dual_avg, moments)
                  - dual_avg.value * helpers.weighted_time_integral(avg, moments))
    return np.where(rejected, 0.0, first - second), rejected


def _assert_matches(actual, desired, what):
    # rtol for ordinary values; the atol covers entries that cancel to
    # rounding level, like path 1 below
    np.testing.assert_allclose(actual, desired, rtol=1e-10,
                               atol=1e-12 * np.abs(desired).max(), err_msg=what)


def test_batched_weights_match_per_component_references():
    # negative correlation gives negative loadings, so a denominator can
    # cancel; path 0 is zeroed (harmless for the single-variable blocks,
    # a zero average for best_of) and path 1 cancels component 0's
    # fixed-strike denominator while its gradient stays
    config = _config(n_assets=3, n_dates=4, vols=(0.2, 0.3, 0.4), rho=-0.3)
    loadings, bundle = _bundle(config, n_paths=32, seed=19)
    spot = bundle.spot_grid.copy()
    spot[0] = 0.0
    profile = 100.0 * np.exp(0.1 * config.monitoring_times)
    spot[1] = np.outer([1.0, loadings[0, 0] / -loadings[1, 0], 0.0], profile)
    bundle = replace(bundle, spot_grid=spot)
    m, n = config.n_assets, config.n_dates
    uniform = np.full((m, n), 1.0 / (m * n))
    dt = config.interval_lengths
    moments = np.diff(config.grid ** 2) / 2.0
    strike, bandwidths = 100.0, np.array([2.0, 5.0, 9.0])

    jets = wt.basket_jets(config, loadings, uniform, bundle)
    fixed = wt.skorohod_weight(jets.avg, jets.int_avg, bundle.w_terminal)
    floating = wt.skorohod_weight(jets.avg - jets.term, jets.int_avg - jets.int_term,
                                  bundle.w_terminal)
    average = np.einsum("pij,ij->p", bundle.spot_grid, uniform)
    digital = _digital_split(jets, bundle.w_terminal, average, strike, bandwidths)
    best = wt.best_of_weight(config, jets, bundle)
    assert fixed.rejected[1, 0] and best.rejected[0].all()

    for k in range(m):
        for jet, reference in zip(jets, _reference_best_of_jets(
                config, loadings, uniform, bundle, k)):
            _assert_matches(jet.value[:, k], reference.value, f"value {k}")
            _assert_matches(jet.samples[0, :, k], helpers.time_integral(reference, dt),
                            f"time integral {k}")
            _assert_matches(jet.samples[1, :, k],
                            helpers.weighted_time_integral(reference, moments),
                            f"weighted time integral {k}")
        digital_values, digital_rejected = _reference_single_variable(
            config, loadings, uniform, bundle, k, "digital", strike, bandwidths[k])
        references = {
            "fixed": (fixed, _reference_single_variable(
                config, loadings, uniform, bundle, k, "fixed")),
            "floating": (floating, _reference_single_variable(
                config, loadings, uniform, bundle, k, "floating")),
            "digital": (digital, ((average >= strike) * digital_values,
                                  digital_rejected)),
            "best_of": (best, _reference_best_of(config, loadings, uniform,
                                                 bundle, k)),
        }
        for name, (pw, (values, rejected)) in references.items():
            assert np.array_equal(pw.rejected[:, k], rejected), (name, k)
            _assert_matches(pw.values[:, k], values, f"{name} component {k}")


def test_jet_weights_match_the_closed_forms():
    # the closed forms the jets replaced; path 0 is zeroed, a harmless
    # degenerate path for every single-variable pair, and path 1 cancels
    # component 0's fixed-strike denominator while its gradient stays
    config = _config(n_assets=3, n_dates=4, vols=(0.2, 0.3, 0.4), rho=-0.3)
    loadings, bundle = _bundle(config, n_paths=64, seed=21)
    spot = bundle.spot_grid.copy()
    spot[0] = 0.0
    profile = 100.0 * np.exp(0.1 * config.monitoring_times)
    spot[1] = np.outer([1.0, loadings[0, 0] / -loadings[1, 0], 0.0], profile)
    bundle = replace(bundle, spot_grid=spot)
    uniform = np.full((3, 4), 1.0 / 12.0)
    w = bundle.w_terminal
    average = np.einsum("pij,ij->p", spot, uniform)
    strike, bandwidths = 100.0, np.array([2.0, 5.0, 9.0])
    jets = wt.basket_jets(config, loadings, uniform, bundle)
    fixed = helpers.skorohod_blocks(config, loadings, uniform, bundle)
    floating = helpers.skorohod_blocks(config, loadings, uniform, bundle, floating=True)
    closed_digital = helpers.closed_form_digital(fixed, w, average, strike, bandwidths)
    pairs = {
        "call": (wt.skorohod_weight(jets.avg, jets.int_avg, w),
                 helpers.closed_form_weight(fixed, w)),
        "floating": (wt.skorohod_weight(jets.avg - jets.term,
                                        jets.int_avg - jets.int_term, w),
                     helpers.closed_form_weight(floating, w)),
        "divergence": (wt.reciprocal_divergence(jets, w),
                       helpers.closed_form_divergence(fixed, w)),
        "digital": (_digital_split(jets, w, average, strike, bandwidths),
                    wt.PathWeights((average >= strike)[:, None] * closed_digital.values,
                                   closed_digital.rejected)),
    }
    for name, (jet, closed) in pairs.items():
        assert np.array_equal(jet.rejected, closed.rejected), name
        np.testing.assert_allclose(jet.values, closed.values, rtol=1e-12, atol=0,
                                   err_msg=name)
        assert not jet.rejected[0].any() and (jet.values[0] == 0.0).all(), name
        if name != "floating":
            assert jet.rejected[1, 0] and jet.values[1, 0] == 0.0, name


def _direction_s_weight(config, jets, bundle):
    """delta(F s) for F = (avg - term) / (s_int_avg - s_int_term), the
    floating integrand for the direction s, with the package's primitive."""
    s_driver = config.maturity * bundle.w_terminal - bundle.w_time_integral
    ratio = (jets.avg - jets.term) / (jets.s_int_avg - jets.s_int_term)
    return wt._skorohod(ratio, s_driver, wt._SDS)


def test_direction_s_integral_of_a_ratio_matches_per_interval_jets():
    # best_of reads the direction s only through products; a ratio
    # differentiates the denominator's s-projection too
    config = _config(n_assets=3, n_dates=4, vols=(0.2, 0.3, 0.4), rho=-0.3)
    loadings, bundle = _bundle(config, n_paths=32, seed=23)
    uniform = np.full((3, 4), 1.0 / 12.0)
    values = _direction_s_weight(config, wt.basket_jets(config, loadings, uniform, bundle),
                                 bundle)
    moments = np.diff(config.grid ** 2) / 2.0
    s_driver = config.maturity * bundle.w_terminal - bundle.w_time_integral
    for k in range(config.n_assets):
        term, avg, _, _, s_int_term, s_int_avg = _reference_best_of_jets(
            config, loadings, uniform, bundle, k)
        ratio = (avg - term) / (s_int_avg - s_int_term)
        reference = (ratio.value * s_driver[:, k]
                     - helpers.weighted_time_integral(ratio, moments))
        _assert_matches(values[:, k], reference, f"component {k}")


def test_direction_s_integral_of_a_ratio_has_zero_mean():
    config = _config(n_assets=3, n_dates=4, vols=(0.2, 0.3, 0.4), rho=0.5)
    loadings, bundle = _bundle(config, n_paths=8192, seed=29)
    jets = wt.basket_jets(config, loadings, np.full((3, 4), 1.0 / 12.0), bundle)
    denom = (jets.s_int_avg - jets.s_int_term).value
    assert (np.abs(denom) > wt._scaled_tolerance(denom)).all()
    values = _direction_s_weight(config, jets, bundle)
    for k in range(config.n_assets):
        column = values[:, k]
        z = abs(column.mean()) / (column.std(ddof=1) / math.sqrt(column.size))
        assert z < 3.0, f"direction-s weight mean off zero at component {k}: z={z:.2f}"


# ---------------------------------------------------------------------------
# localization


def test_localization_piecewise_values():
    strike, width = 100.0, 4.0
    z = np.array([90.0, 96.0, 98.0, 100.0, 102.0, 104.0, 120.0])
    ramp, remainder = wt.ramp_split(z - strike, width)
    assert np.allclose(ramp, [0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0])
    anti = np.maximum(z - strike, 0.0) - remainder
    assert np.allclose(anti, [0.0, 0.0, 0.25, 1.0, 2.25, 4.0, 20.0])
    assert np.allclose(remainder, [0.0, 0.0, -0.25, -1.0, -0.25, 0.0, 0.0])
    assert remainder[3] == -width / 4.0


@given(st.floats(min_value=50.0, max_value=150.0),
       st.floats(min_value=0.01, max_value=30.0),
       arrays(np.float64, (16,),
              elements=st.floats(min_value=0.0, max_value=300.0)))
@settings(max_examples=60, deadline=None)
def test_localization_remainder_properties(strike, width, z):
    _, remainder = wt.ramp_split(z - strike, width)
    outside = np.abs(z - strike) >= width
    assert np.abs(remainder[outside]).max(initial=0.0) < 1e-9


def test_ramp_antiderivative_integrates_the_ramp():
    strike, width = 100.0, 5.0
    z = np.linspace(90.0, 110.0, 2001)
    ramp, remainder = wt.ramp_split(z - strike, width)
    anti = np.maximum(z - strike, 0.0) - remainder
    numeric = np.concatenate([[0.0], np.cumsum((ramp[1:] + ramp[:-1]) * 0.5
                                               * np.diff(z))])
    assert np.abs(anti - (anti[0] + numeric)).max() < 1e-4


def test_laplace_pair_splits_the_step_exactly():
    # the step 1{z >= K} is (1{z >= K} - R) + R and P is the slope of the
    # first part, so R plus the integral of P is the step; K sits on the
    # grid, so the trapezoid misses only half a cell at the jump of P
    strike, bandwidth, step = 100.0, 2.0, 2.0 ** -10
    z = strike + step * np.arange(-10240, 10241)
    slope, remainder = wt.laplace_split(z - strike, bandwidth)
    indicator = (z >= strike).astype(np.float64)
    integral = np.concatenate([[0.0], np.cumsum((slope[1:] + slope[:-1]) * 0.5 * step)])
    assert np.abs(remainder + integral - indicator).max() < step / bandwidth
    tie_slope, tie_remainder = wt.laplace_split(np.array([strike]) - strike, bandwidth)
    assert tie_slope[0] == 0.0 and tie_remainder[0] == 1.0


def test_no_weight_reads_the_strike():
    # localization takes the excess z - kink, so the strike stays out of
    # every public function here, as the README says
    for name, function in inspect.getmembers(wt, inspect.isfunction):
        if function.__module__ == wt.__name__ and not name.startswith("_"):
            assert "strike" not in inspect.signature(function).parameters, name


# ---------------------------------------------------------------------------
# adaptive parameters


def _divergence(values, rejected=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if rejected is None:
        rejected = np.zeros(values.shape, dtype=bool)
    return wt.PathWeights(values=values, rejected=rejected)


def test_adaptive_parameters_scale_rules():
    rng = np.random.default_rng(15)
    values = rng.normal(size=500)
    bandwidth = wt.adaptive_bandwidth(_divergence(values))[0]
    assert (wt.adaptive_bandwidth(_divergence(5.0 * values))[0]
            == pytest.approx(bandwidth / 5.0))
    assert bandwidth == pytest.approx(np.var(values, ddof=1) ** -0.5)


def test_adaptive_parameters_degenerate_inputs():
    assert np.isnan(wt.adaptive_bandwidth(_divergence(np.ones(10)))).all()


def test_adaptive_bandwidth_matches_per_component_loop():
    # the per-component reference the batched rule replaced: np.var of
    # the kept paths of each column, None when degenerate
    def reference(values, keep):
        if keep.sum() < 2:
            return np.nan
        variance = float(np.var(values[keep], ddof=1))
        return variance ** -0.5 if variance > 0.0 and np.isfinite(variance) else np.nan

    rng = np.random.default_rng(19)
    values = rng.standard_t(3, size=(2048, 6)) * np.array([1e-3, 1, 1, 1, 1e4, 1])
    values[:, 3] = 2.5                                   # zero variance
    rejected = np.zeros(values.shape, dtype=bool)
    got = wt.adaptive_bandwidth(_divergence(values, rejected))
    want = [reference(values[:, k], ~rejected[:, k]) for k in range(6)]
    assert np.array_equal(got, want, equal_nan=True)   # same sums, same bits
    rejected[rng.random(values.shape) < 0.05] = True
    rejected[1:, 5] = True                               # one kept path
    got = wt.adaptive_bandwidth(_divergence(values, rejected))
    want = [reference(values[:, k], ~rejected[:, k]) for k in range(6)]
    assert np.allclose(got, want, rtol=1e-14, equal_nan=True)
    assert np.isnan(got[[3, 5]]).all()


def test_replication_spread_picks_least_scattered_column():
    rep_means = np.array([[1.0, 5.0, 3.00],
                          [1.1, 9.0, 3.00],
                          [0.9, 1.0, 3.05],
                          [1.0, 7.0, 2.95]])
    assert wt.width_by_replication_spread(rep_means[:, :, None],
                                          [2.0, 5.0, 10.0])[0] == 10.0


def test_replication_spread_breaks_ties_toward_narrow():
    tied = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    # columns listed widest first; the narrow one must still win
    assert wt.width_by_replication_spread(tied[:, :, None], [7.0, 3.0])[0] == 3.0


def test_replication_spread_skips_unusable_columns():
    rep_means = np.array([[np.nan, 4.0], [0.0, 4.5], [0.0, 3.5]])
    assert wt.width_by_replication_spread(rep_means[:, :, None], [1.0, 2.0])[0] == 2.0
    all_bad = np.full((3, 2, 1), np.inf)
    assert np.isnan(wt.width_by_replication_spread(all_bad, [1.0, 2.0])).all()


def test_replication_spread_degenerate_inputs():
    assert np.isnan(wt.width_by_replication_spread(np.ones((1, 3, 2)),
                                                   [1.0, 2.0, 3.0])).all()
    with pytest.raises(ValueError, match="candidates"):
        wt.width_by_replication_spread(np.ones(4), [1.0])
    # constant columns carry no ranking information
    assert np.isnan(wt.width_by_replication_spread(np.ones((4, 2, 1)),
                                                   [1.0, 2.0])).all()


def test_replication_spread_races_every_component_like_the_loop():
    # the per-component reference the batched race replaced
    def reference(column_means, widths):
        best_width, best_spread = np.nan, np.inf
        for width, column in sorted(zip(widths, column_means.T), key=lambda p: p[0]):
            if np.isfinite(column).all():
                spread = float(np.std(column, ddof=1))
                if spread < best_spread:
                    best_width, best_spread = width, spread
        return best_width if best_spread > 0.0 and np.isfinite(best_spread) else np.nan

    rng = np.random.default_rng(20)
    widths = [5.0, 1.0, 10.0, 2.0, 20.0, 50.0]
    for trial in range(200):
        table = rng.standard_normal((8, 6, 5)) * 10.0 ** rng.integers(-6, 4)
        if trial % 3 == 0:
            table = np.round(table, 1)                   # ties
        table[rng.integers(8), rng.integers(6), rng.integers(5)] = np.nan
        table[:, 4, 2] = 7.0                             # one constant column
        got = wt.width_by_replication_spread(table, widths)
        want = [reference(table[:, :, k], widths) for k in range(5)]
        assert np.array_equal(got, want, equal_nan=True)
