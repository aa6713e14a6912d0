import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qmcgreeks import lt
from qmcgreeks.market import MarketConfig, path_generator, simulate_paths, vol_loadings
from qmcgreeks.payoffs import PayoffSpec
from qmcgreeks.presets import ladder_market


_KINDS = [("call", 100.0), ("floating", 0.0), ("digital", 100.0), ("best_of", 100.0)]


def _config(n_assets=2, n_dates=3, vols=(0.2, 0.4)):
    correlation = np.full((n_assets, n_assets), 0.5)
    np.fill_diagonal(correlation, 1.0)
    return MarketConfig(spots=np.full(n_assets, 100.0), rate=0.05,
                        vols=np.asarray(vols), correlation=correlation,
                        maturity=1.0,
                        monitoring_times=np.arange(1, n_dates + 1) / n_dates)


@pytest.mark.parametrize("kind,strike", _KINDS)
def test_columns_are_orthonormal(kind, strike):
    config = _config()
    build = lt.build_lt_matrix(config, PayoffSpec(kind=kind, strike=strike))
    d = config.nominal_dimension
    assert build.matrix.shape == (d, d)
    # a read-only view of the build's contiguous rows, one per column
    assert build.matrix.T.flags.c_contiguous and not build.matrix.flags.writeable
    assert np.abs(build.matrix.T @ build.matrix - np.eye(d)).max() < 1e-12


def test_build_is_deterministic_and_strike_free():
    config = _config()
    a = lt.build_lt_matrix(config, PayoffSpec(kind="call", strike=90.0))
    b = lt.build_lt_matrix(config, PayoffSpec(kind="call", strike=110.0))
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.objectives, b.objectives)


def test_first_column_follows_the_driver_gradient():
    config = _config()
    loadings = vol_loadings(config)
    spec = PayoffSpec(kind="call", strike=100.0)
    build = lt.build_lt_matrix(config, spec)
    d = config.nominal_dimension
    bundle = simulate_paths(config, path_generator(config, loadings), np.zeros((1, d)))
    weights = spec.weight_matrix(config.n_assets, config.n_dates)
    gradient = lt.driver_gradient(config, loadings, weights, bundle.spot_grid)
    direction = gradient / np.linalg.norm(gradient)
    assert np.abs(build.matrix[:, 0] - direction).max() < 1e-12
    assert build.objectives[0] == pytest.approx(np.dot(gradient, gradient))
    assert build.objectives.shape == (d,)
    assert (build.objectives > 0.0).all()
    assert build.fallback_columns == 0


def test_driver_gradient_matches_finite_differences():
    config = _config()
    loadings = vol_loadings(config)
    d = config.nominal_dimension
    rng = np.random.default_rng(6)
    eta = rng.standard_normal((1, d))
    coeff = rng.uniform(0.1, 1.0, size=(config.n_assets, config.n_dates))
    generator = path_generator(config, loadings)

    def functional(point):
        bundle = simulate_paths(config, generator, point)
        return float((coeff[None] * bundle.spot_grid).sum())

    spot = simulate_paths(config, generator, eta).spot_grid
    gradient = lt.driver_gradient(config, loadings, coeff, spot)
    h = 1e-6
    for p in range(d):
        up, down = eta.copy(), eta.copy()
        up[0, p] += h
        down[0, p] -= h
        fd = (functional(up) - functional(down)) / (2.0 * h)
        assert gradient[p] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_zero_volatility_falls_back_to_identity():
    config = _config(vols=(0.0, 0.0))
    build = lt.build_lt_matrix(config, PayoffSpec(kind="call", strike=100.0))
    d = config.nominal_dimension
    assert build.fallback_columns == d
    assert np.array_equal(build.matrix, np.eye(d))
    assert build.objectives[0] == 0.0
    assert np.array_equal(build.objectives, np.zeros(d))


def test_best_of_fallbacks_keep_orthonormality():
    # the terminal-mean branch spans only an assets-sized subspace; once
    # it is exhausted the columns follow the average branch, so on this
    # market no column is left to the basis completion
    config = _config(n_assets=3, n_dates=4, vols=(0.1, 0.25, 0.4))
    build = lt.build_lt_matrix(config, PayoffSpec(kind="best_of", strike=100.0))
    d = config.nominal_dimension
    assert np.abs(build.matrix.T @ build.matrix - np.eye(d)).max() < 1e-12
    assert build.fallback_columns == 0
    assert (build.objectives > 0.0).all()


def test_best_of_build_retires_spent_legs(monkeypatch):
    # one gradient per column plus one per retired leg: a leg whose
    # projected gradient vanished is not evaluated again
    config = ladder_market(3, 4)
    calls = []
    original = lt.driver_gradient

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lt, "driver_gradient", counted)
    lt.build_lt_matrix(config, PayoffSpec(kind="best_of", strike=100.0))
    assert len(calls) <= config.nominal_dimension + 2


@pytest.mark.parametrize("kind,strike", _KINDS)
def test_completion_follows_the_greedy_columns(kind, strike):
    # the second asset has no volatility, so the driver gradients span
    # only the first driver's three increments
    config = _config(vols=(0.2, 0.0))
    build = lt.build_lt_matrix(config, PayoffSpec(kind=kind, strike=strike))
    d = config.nominal_dimension
    assert build.fallback_columns == 3
    assert (build.objectives[:3] > 0.0).all()
    assert np.array_equal(build.objectives[3:], np.zeros(3))
    assert np.abs(build.matrix.T @ build.matrix - np.eye(d)).max() < 1e-12
    completed = build.matrix[:, 3:]
    peaks = completed[np.abs(completed).argmax(axis=0), np.arange(3)]
    assert (peaks > 0.0).all()


@pytest.mark.parametrize("kind,strike", _KINDS)
def test_rotation_is_stable_under_rounding(kind, strike, monkeypatch):
    config = _config(n_assets=3, n_dates=4, vols=(0.1, 0.25, 0.4))
    spec = PayoffSpec(kind=kind, strike=strike)
    build = lt.build_lt_matrix(config, spec)
    original = lt.simulate_paths

    def nudged(*args):
        bundle = original(*args)
        return replace(bundle, spot_grid=np.nextafter(bundle.spot_grid, np.inf))

    monkeypatch.setattr(lt, "simulate_paths", nudged)
    moved = lt.build_lt_matrix(config, spec)
    assert np.abs(moved.matrix - build.matrix).max() <= 1e-9


def test_the_build_holds_one_square_array():
    # the rows are the only d x d array: a copy of them as the returned
    # matrix would double the peak
    config = ladder_market(4, 32)
    spec = PayoffSpec(kind="call", strike=100.0)
    lt.build_lt_matrix(config, spec)   # later calls reuse numpy's lazy state
    tracemalloc.start()
    try:
        build = lt.build_lt_matrix(config, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = config.nominal_dimension
    assert build.fallback_columns == 0
    assert peak < 1.5 * d * d * 8, f"peak {peak / (d * d * 8):.2f} x d^2 doubles"
