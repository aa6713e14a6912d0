import re
from pathlib import Path

import numpy as np
import pytest

from qmcgreeks import estimator, lt, payoffs
from qmcgreeks.market import MarketConfig, PathBundle


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


def test_fixed_strike_evaluation():
    config = _config()
    spec = payoffs.PayoffSpec(kind="call", strike=100.0)
    grid = [[[90.0, 110.0], [100.0, 120.0]],
            [[80.0, 80.0], [90.0, 90.0]]]
    ev = payoffs.evaluate(spec, config, _bundle(grid))
    assert np.allclose(ev.average, [105.0, 85.0])
    assert np.allclose(payoffs.FAMILIES["call"].value(100.0, ev.average,
                                                      ev.floating_strike), [5.0, 0.0])
    assert np.allclose(ev.average_grad, [[50.0, 55.0], [40.0, 45.0]])
    assert np.abs(ev.strike_grad).max() == 0.0
    assert np.abs(ev.floating_strike).max() == 0.0


def test_gradients_sum_back_to_aggregates():
    config = _config()
    rng = np.random.default_rng(0)
    grid = 100.0 * np.exp(rng.normal(0, 0.2, size=(40, 2, 2)))
    for kind, strike in (("call", 100.0), ("floating", 0.0),
                         ("digital", 100.0), ("best_of", 100.0)):
        ev = payoffs.evaluate(payoffs.PayoffSpec(kind=kind, strike=strike),
                              config, _bundle(grid))
        assert np.allclose(ev.average_grad.sum(axis=1), ev.average)
        if kind in ("floating", "best_of"):
            assert np.allclose(ev.strike_grad.sum(axis=1), ev.floating_strike)


def test_floating_and_best_of_values():
    config = _config()
    grid = [[[90.0, 110.0], [100.0, 120.0]],
            [[80.0, 130.0], [90.0, 140.0]]]
    bundle = _bundle(grid)
    floating = payoffs.evaluate(payoffs.PayoffSpec(kind="floating", strike=0.0),
                                config, bundle)
    # terminal mean (110+120)/2 = 115 vs average 105; (130+140)/2 = 135 vs 110
    assert np.allclose(floating.floating_strike, [115.0, 135.0])
    assert np.allclose(payoffs.FAMILIES["floating"].value(
        0.0, floating.average, floating.floating_strike), [0.0, 0.0])
    assert np.allclose(floating.strike_grad, [[55.0, 60.0], [65.0, 70.0]])
    best = payoffs.evaluate(payoffs.PayoffSpec(kind="best_of", strike=100.0),
                            config, bundle)
    assert np.allclose(payoffs.FAMILIES["best_of"].value(
        100.0, best.average, best.floating_strike), [15.0, 35.0])


def test_digital_tie_pays_one():
    config = _config()
    grid = [[[100.0, 100.0], [100.0, 100.0]],
            [[100.0, 100.0], [100.0, 99.0]]]
    ev = payoffs.evaluate(payoffs.PayoffSpec(kind="digital", strike=100.0),
                          config, _bundle(grid))
    assert ev.average[0] == 100.0
    value = payoffs.FAMILIES["digital"].value(100.0, ev.average, ev.floating_strike)
    assert np.array_equal(value, [1.0, 0.0])
    assert set(np.unique(value)) <= {0.0, 1.0}


def test_value_monotone_in_average():
    for kind in ("call", "digital"):
        value = payoffs.FAMILIES[kind].value
        low = value(100.0, np.array([95.0]), np.zeros(1))
        high = value(100.0, np.array([105.0]), np.zeros(1))
        assert high[0] >= low[0]
        assert high[0] > 0.0


def test_discount_factor():
    assert payoffs.discount(_config()) == pytest.approx(np.exp(-0.05), rel=1e-15)


@pytest.mark.parametrize("module", [estimator, lt])
def test_kind_dispatch_lives_in_the_family_records(module):
    # the estimator and the rotation read PayoffFamily fields; a kind
    # comparison or a missing-frame branch would split the dispatch again
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert not re.search(r"\.kind *(==|!=|in )", source)
    assert "frame is None" not in source
