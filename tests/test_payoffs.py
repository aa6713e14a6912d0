import re
from pathlib import Path

import numpy as np
import pytest

from qmcgreeks import estimator, lt, payoffs
from qmcgreeks.market import MarketConfig, PathBundle

import helpers


def _config(n_assets=2, n_dates=2):
    correlation = np.full((n_assets, n_assets), 0.5)
    np.fill_diagonal(correlation, 1.0)
    return MarketConfig(spots=np.full(n_assets, 100.0), rate=0.05,
                        vols=np.full(n_assets, 0.2), correlation=correlation,
                        maturity=1.0,
                        monitoring_times=np.arange(1, n_dates + 1) / n_dates)


def _bundle(spot_grid):
    spot_grid = np.asarray(spot_grid, dtype=np.float64)
    p, m = spot_grid.shape[:2]
    return PathBundle(spot_grid=spot_grid, w_terminal=np.zeros((p, m)),
                      w_time_integral=np.zeros((p, m)))


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        payoffs.PayoffSpec(kind="lookback", strike=100.0)
    with pytest.raises(ValueError, match="positive strike"):
        payoffs.PayoffSpec(kind="call", strike=0.0)
    with pytest.raises(ValueError, match="uniform"):
        payoffs.PayoffSpec(kind="floating", strike=0.0,
                           weights=np.full((1, 1), 1.0))
    with pytest.raises(ValueError, match="sum"):
        payoffs.PayoffSpec(kind="call", strike=100.0,
                           weights=np.full((2, 2), 1.0))
    with pytest.raises(ValueError, match="non-negative"):
        payoffs.PayoffSpec(kind="call", strike=100.0,
                           weights=np.array([[1.5, -0.5], [0.0, 0.0]]))
    for kind in ("call", "floating"):
        for strike in (np.nan, np.inf):
            with pytest.raises(ValueError, match="strike must be finite"):
                payoffs.PayoffSpec(kind=kind, strike=strike)
    # floating accepts a zero strike; it has no strike level of its own
    payoffs.PayoffSpec(kind="floating", strike=0.0)


def test_weight_matrix_defaults_and_shape_check():
    spec = payoffs.PayoffSpec(kind="call", strike=100.0)
    assert np.allclose(spec.weight_matrix(2, 3), 1.0 / 6.0)
    custom = payoffs.PayoffSpec(kind="call", strike=100.0,
                                weights=np.array([[0.75, 0.25]]))
    assert np.array_equal(custom.weight_matrix(1, 2), [[0.75, 0.25]])
    with pytest.raises(ValueError, match="shape"):
        custom.weight_matrix(2, 2)


def test_a_strike_on_the_floating_payoff_is_refused():
    # the floating kind pays against the terminal basket mean, so a strike
    # level would be ignored without a word
    for strike in (95.0, -1.0, 1e-300):
        with pytest.raises(ValueError, match="strike needs a fixed-strike payoff; "
                                             "floating has no strike"):
            payoffs.PayoffSpec(kind="floating", strike=strike)


def test_fixed_strike_evaluation():
    config = _config()
    spec = payoffs.PayoffSpec(kind="call", strike=100.0)
    grid = [[[90.0, 110.0], [100.0, 120.0]],
            [[80.0, 80.0], [90.0, 90.0]]]
    ev = payoffs.evaluate(spec, config, _bundle(grid))
    assert np.allclose(ev.variable, [105.0, 85.0])
    assert np.allclose(payoffs.FAMILIES["call"].value(100.0, ev.variable), [5.0, 0.0])
    assert np.allclose(ev.slope, [[50.0, 55.0], [40.0, 45.0]])
    # the average is the one leg; no terminal-mean leg is formed
    assert ev.values.shape == (1, 2) and ev.grads.shape == (1, 2, 2)


def test_gradients_sum_back_to_aggregates():
    config = _config()
    rng = np.random.default_rng(0)
    grid = 100.0 * np.exp(rng.normal(0, 0.2, size=(40, 2, 2)))
    average, _, terminal, _ = helpers.aggregates(grid, np.full((2, 2), 0.25))
    for kind, strike, legs in (("call", 100.0, [average]),
                               ("floating", 0.0, [average - terminal]),
                               ("digital", 100.0, [average]),
                               ("best_of", 100.0, [average, terminal])):
        ev = payoffs.evaluate(payoffs.PayoffSpec(kind=kind, strike=strike),
                              config, _bundle(grid))
        assert np.allclose(ev.values, legs)
        assert np.allclose(ev.grads.sum(axis=2), legs)


def test_floating_and_best_of_values():
    config = _config()
    grid = [[[90.0, 110.0], [100.0, 120.0]],
            [[80.0, 130.0], [90.0, 140.0]]]
    bundle = _bundle(grid)
    floating = payoffs.evaluate(payoffs.PayoffSpec(kind="floating", strike=0.0),
                                config, bundle)
    # terminal mean (110+120)/2 = 115 vs average 105; (130+140)/2 = 135 vs 110
    assert np.allclose(floating.variable, [-10.0, -25.0])
    assert np.allclose(payoffs.FAMILIES["floating"].value(0.0, floating.variable),
                       [0.0, 0.0])
    best = payoffs.evaluate(payoffs.PayoffSpec(kind="best_of", strike=100.0),
                            config, bundle)
    assert np.allclose(best.values[1], [115.0, 135.0])
    assert np.allclose(best.grads[1], [[55.0, 60.0], [65.0, 70.0]])
    assert np.allclose(floating.slope, best.grads[0] - best.grads[1])
    assert np.allclose(payoffs.FAMILIES["best_of"].value(100.0, best.variable),
                       [15.0, 35.0])


def test_digital_tie_pays_one():
    config = _config()
    grid = [[[100.0, 100.0], [100.0, 100.0]],
            [[100.0, 100.0], [100.0, 99.0]]]
    ev = payoffs.evaluate(payoffs.PayoffSpec(kind="digital", strike=100.0),
                          config, _bundle(grid))
    assert ev.variable[0] == 100.0
    value = payoffs.FAMILIES["digital"].value(100.0, ev.variable)
    assert np.array_equal(value, [1.0, 0.0])
    assert set(np.unique(value)) <= {0.0, 1.0}


def test_value_monotone_in_average():
    for kind in ("call", "digital"):
        value = payoffs.FAMILIES[kind].value
        low = value(100.0, np.array([95.0]))
        high = value(100.0, np.array([105.0]))
        assert high[0] >= low[0]
        assert high[0] > 0.0


@pytest.mark.parametrize("kind", payoffs.KINDS)
@pytest.mark.parametrize("assets, dates", [(2, 2), (3, 4)])
def test_the_largest_leg_is_the_per_kind_variable(kind, assets, dates):
    # the legs define z, its slope and the bump reruns for every kind; the
    # aggregates written out kind by kind in helpers are the oracle, to a
    # few ulps
    config = _config(assets, dates)
    spec = payoffs.PayoffSpec(kind=kind, strike=0.0 if kind == "floating" else 100.0)
    weights = spec.weight_matrix(assets, dates)
    rng = np.random.default_rng(11 + dates)
    grid = 100.0 * np.exp(rng.normal(0.0, 0.2, size=(256, assets, dates)))
    if (assets, dates) == (2, 2):
        # an exact best_of tie in binary: average = terminal mean = 100,
        # with parts (45, 55) against (50, 50)
        grid[0] = [[80.0, 100.0], [120.0, 100.0]]
    ev = payoffs.evaluate(spec, config, _bundle(grid))
    aggregates = helpers.aggregates(grid, weights)
    average, _, terminal, _ = aggregates
    ulps = 8.0 * np.finfo(float).eps * grid.max()
    np.testing.assert_allclose(ev.variable, helpers.reference_variable(
        kind, average, terminal), rtol=0, atol=ulps)
    np.testing.assert_allclose(ev.slope, helpers.reference_slope(kind, *aggregates),
                               rtol=0, atol=ulps)
    bump = 0.01
    contrast = estimator._bump_contrast(spec.family, spec.strike, config, ev, bump)
    expected = helpers.reference_bump_contrast(kind, spec.strike, grid, weights,
                                               config.spots, bump)
    np.testing.assert_allclose(contrast, expected, rtol=0,
                               atol=ulps / (bump * config.spots.min()))
    if kind == "best_of" and (assets, dates) == (2, 2):
        # the tie takes the average leg, the first, as the payoff pays it
        assert ev.values[0, 0] == ev.values[1, 0] == 100.0
        assert ev.slope[0].tolist() == [45.0, 55.0]


@pytest.mark.parametrize("kind", payoffs.KINDS)
def test_evaluate_equals_the_full_grid_contraction_bit_for_bit(kind):
    # best_of's terminal leg is contracted over its one date; the dates
    # outside a leg's span only add zeros, so every leg keeps the
    # full-grid bits. The grid views a wider product, as a simulated
    # bundle's does
    config = _config(3, 8)
    spec = payoffs.PayoffSpec(kind=kind, strike=0.0 if kind == "floating" else 100.0)
    product = 100.0 * np.exp(np.random.default_rng(3).normal(0.0, 0.2, size=(64, 32)))
    grid = product[:, :24].reshape(64, 3, 8)
    ev = payoffs.evaluate(spec, config, _bundle(grid))
    full = np.stack([np.einsum("pij,ij->pi", grid, coeff)
                     for coeff in spec.family.legs(spec.weight_matrix(3, 8))])
    assert np.array_equal(ev.grads, full)
    assert np.array_equal(ev.values, full.sum(axis=2))


def test_discount_factor():
    assert payoffs.discount(_config()) == pytest.approx(np.exp(-0.05), rel=1e-15)


@pytest.mark.parametrize("module", [estimator, lt, payoffs])
def test_kind_dispatch_lives_in_the_family_records(module):
    # the estimator, the rotation and evaluate read PayoffFamily fields; a
    # kind comparison or a missing-frame branch would split the dispatch again
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert not re.search(r"\.kind *(==|!=|in )", source)
    assert "frame is None" not in source
