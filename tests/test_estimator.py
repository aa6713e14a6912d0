import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcgreeks import estimator as est
from qmcgreeks import payoffs
from qmcgreeks import weights as wt
from qmcgreeks.estimator import EstimationError, EstimateReport, estimate
from qmcgreeks.market import MarketConfig, path_generator, simulate_paths, vol_loadings
from qmcgreeks.payoffs import PayoffSpec
from qmcgreeks.presets import ladder_market
from qmcgreeks.qmc import MAX_DIMENSION, QmcConfig


def _market(n_assets=2, n_dates=2, rho=0.5):
    correlation = np.full((n_assets, n_assets), rho)
    np.fill_diagonal(correlation, 1.0)
    vols = 0.2 + 0.2 * np.arange(n_assets) / max(n_assets - 1, 1)
    return MarketConfig(spots=np.full(n_assets, 100.0), rate=0.05,
                        vols=vols, correlation=correlation, maturity=1.0,
                        monitoring_times=np.arange(1, n_dates + 1) / n_dates)


def _stream(config, points=256, replications=8, seed=7, mode="scrambled_sobol"):
    d = config.nominal_dimension
    return QmcConfig(points_per_replication=points,
                     replications=replications,
                     lss_block_dimension=min(16, d), seed=seed, mode=mode)


def test_report_is_consistent_with_replication_means():
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    report = estimate(config, spec, _stream(config), method="loc")
    r, m = report.replication_means.shape
    assert (r, m) == (8, 2)
    assert np.array_equal(report.deltas, report.replication_means.mean(axis=0))
    assert np.array_equal(
        report.stderrs,
        report.replication_means.std(axis=0, ddof=1) / math.sqrt(r))
    assert report.method == "loc"
    assert report.settings["payoff"] == "call"
    assert report.settings["points"] == 256
    assert report.settings["loc_fraction"] == 0.01
    assert np.allclose(report.localization_widths, 1.0)  # 1% of strike 100
    assert report.runtime_seconds > 0.0


def test_same_inputs_give_identical_reports():
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    qmc = _stream(config)
    first = estimate(config, spec, qmc, method="adaptive")
    second = estimate(config, spec, qmc, method="adaptive")
    assert np.array_equal(first.deltas, second.deltas)
    assert np.array_equal(first.stderrs, second.stderrs)
    assert np.array_equal(first.replication_means, second.replication_means)
    assert np.array_equal(first.localization_widths,
                          second.localization_widths)


def test_worker_count_does_not_change_results():
    config = _market()
    spec = PayoffSpec(kind="digital", strike=100.0)
    qmc = _stream(config)
    serial = estimate(config, spec, qmc, method="adaptive", workers=1)
    threaded = estimate(config, spec, qmc, method="adaptive", workers=3)
    assert np.array_equal(serial.deltas, threaded.deltas)
    assert np.array_equal(serial.replication_means, threaded.replication_means)


def test_simulated_path_accounting():
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    qmc = _stream(config, points=128, replications=4)
    base = 4 * 128
    assert estimate(config, spec, qmc, method="loc").simulated_paths == base
    assert estimate(config, spec, qmc,
                    method="adaptive").simulated_paths == base + 128
    fd = estimate(config, spec, qmc, method="fd")
    assert fd.simulated_paths == base * 2 * config.n_assets
    assert fd.localization_widths is None


def test_fd_is_bump_independent_on_linear_payoff():
    # a deep in-the-money call pays average - strike on every path, so the
    # central difference is exact and the bump size cannot matter
    config = _market()
    spec = PayoffSpec(kind="call", strike=1e-6)
    qmc = _stream(config, points=128, replications=4)
    small = estimate(config, spec, qmc, method="fd", fd_bump=0.01)
    large = estimate(config, spec, qmc, method="fd", fd_bump=0.3)
    assert np.allclose(small.deltas, large.deltas, rtol=1e-12)


def test_pseudo_and_sobol_sampling_agree():
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    sobol = estimate(config, spec, _stream(config, points=1024,
                                           replications=16), method="loc")
    pseudo = estimate(config, spec,
                      _stream(config, points=1024, replications=16,
                              mode="pseudo_random"), method="loc")
    spread = np.hypot(sobol.stderrs, pseudo.stderrs)
    assert (np.abs(sobol.deltas - pseudo.deltas) < 3.0 * spread).all()


def test_rotation_leaves_the_estimate_unbiased():
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    qmc = _stream(config, points=1024, replications=16)
    with_lt = estimate(config, spec, qmc, method="loc", use_lt=True)
    without = estimate(config, spec, qmc, method="loc", use_lt=False)
    assert with_lt.lt_build is not None
    assert without.lt_build is None
    spread = np.hypot(with_lt.stderrs, without.stderrs)
    assert (np.abs(with_lt.deltas - without.deltas) < 3.0 * spread).all()


def test_runs_above_the_sobol_table_dimension():
    # LSS draws only block-wide Sobol columns, so the nominal dimension
    # may exceed the Sobol table
    config = _market(n_assets=3, n_dates=7101)
    assert config.nominal_dimension > MAX_DIMENSION
    spec = PayoffSpec(kind="call", strike=100.0)
    report = estimate(config, spec, _stream(config, points=8, replications=2),
                      method="loc", use_lt=False)
    assert report.deltas.shape == (3,)
    assert np.isfinite(report.deltas).all() and np.isfinite(report.stderrs).all()


def test_stderr_shrinks_as_points_grow():
    config = _market(n_dates=4)
    spec = PayoffSpec(kind="call", strike=100.0)
    sizes = (128, 256, 512)
    errors = [np.median(estimate(config, spec,
                                 _stream(config, points=p, replications=16),
                                 method="loc").stderrs)
              for p in sizes]
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("kind", ["floating", "best_of", "digital"])
def test_other_payoff_kinds_run_end_to_end(kind):
    config = _market(n_dates=3)
    strike = 0.0 if kind == "floating" else 100.0
    spec = PayoffSpec(kind=kind, strike=strike)
    report = estimate(config, spec, _stream(config, points=256,
                                            replications=8),
                      method="adaptive")
    assert np.isfinite(report.deltas).all()
    assert np.isfinite(report.stderrs).all()
    assert (report.localization_widths > 0.0).all()


def test_invalid_arguments_are_rejected(monkeypatch):
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    qmc = _stream(config)
    with pytest.raises(ValueError, match="unknown method"):
        estimate(config, spec, qmc, method="quadrature")
    with pytest.raises(ValueError, match="loc_fraction"):
        estimate(config, spec, qmc, method="loc", loc_fraction=0.0)
    with pytest.raises(ValueError, match="fd_bump"):
        estimate(config, spec, qmc, method="fd", fd_bump=-0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="loc_fraction"):
            estimate(config, spec, qmc, method="loc", loc_fraction=bad)
        with pytest.raises(ValueError, match="fd_bump"):
            estimate(config, spec, qmc, method="fd", fd_bump=bad)
    # the down scenario scales the spots by 1 - fd_bump, which must stay positive
    for bad in (1.0, 1.5):
        with pytest.raises(ValueError, match="fd_bump"):
            estimate(config, spec, qmc, method="fd", fd_bump=bad)
    with pytest.raises(ValueError, match="workers"):
        estimate(config, spec, qmc, workers=0)
    # one replication has no spread, so its stderr would be a silent nan
    with pytest.raises(ValueError, match="replications"):
        estimate(config, spec, _stream(config, replications=1), method="loc")

    def unreachable(*args, **kwargs):
        raise AssertionError("rotation build started")

    # the best_of weight needs two dates, so no work may start on one
    one_date = _market(n_assets=3, n_dates=1)
    best_of = PayoffSpec(kind="best_of", strike=100.0)
    monkeypatch.setattr(est, "build_lt_matrix", unreachable)
    for method in ("adaptive", "loc"):
        with pytest.raises(ValueError, match="2 monitoring dates; the market has 1"):
            estimate(one_date, best_of, _stream(one_date), method=method)
    # finite differences need no weight
    monkeypatch.undo()
    report = estimate(one_date, best_of, _stream(one_date, points=32, replications=2),
                      method="fd")
    assert np.isfinite(report.deltas).all()


def test_prebuilt_rotation_must_match_the_market(monkeypatch):
    config = _market(n_assets=2, n_dates=2)
    spec = PayoffSpec(kind="call", strike=100.0)
    wrong = est.build_lt_matrix(_market(n_assets=3, n_dates=2), spec)

    def unreachable(*args, **kwargs):
        raise AssertionError("path simulation started")

    monkeypatch.setattr(est, "path_generator", unreachable)
    with pytest.raises(ValueError, match=r"lt_build.*\(6, 6\).*\(4, 4\)"):
        estimate(config, spec, _stream(config), lt_build=wrong)
    # without the rotation the prebuilt one is never read
    monkeypatch.undo()
    estimate(config, spec, _stream(config, points=32, replications=2),
             method="loc", use_lt=False, lt_build=wrong)


@pytest.mark.parametrize("kind, builder, pilot_bundles", [
    ("call", "basket_jets", est.PILOT_SPLIT),
    ("digital", "basket_jets", 1),
    ("floating", "basket_jets", est.PILOT_SPLIT),
    ("best_of", "best_of_weight", est.PILOT_SPLIT),
    ("best_of", "basket_jets", est.PILOT_SPLIT),
])
def test_weights_are_built_once_per_bundle(monkeypatch, kind, builder,
                                           pilot_bundles):
    config = _market(n_assets=3, n_dates=3)
    spec = PayoffSpec(kind=kind, strike=0.0 if kind == "floating" else 100.0)
    qmc = _stream(config, points=64, replications=3)
    original = getattr(wt, builder)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(wt, builder, counted)
    estimate(config, spec, qmc, method="adaptive")
    assert len(calls) == qmc.replications + pilot_bundles


def test_rejection_limit_aborts_the_run(monkeypatch):
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    qmc = _stream(config, points=256, replications=4)
    original = payoffs.FAMILIES["call"].weights

    def leaky(config_, jets, bundle):
        pw = original(config_, jets, bundle)
        rejected = pw.rejected.copy()
        rejected[:4, 0] = True
        return wt.PathWeights(values=pw.values, rejected=rejected)

    monkeypatch.setitem(payoffs.FAMILIES, "call",
                        replace(payoffs.FAMILIES["call"], weights=leaky))
    with pytest.raises(EstimationError, match="component 1"):
        estimate(config, spec, qmc, method="loc")


@pytest.mark.parametrize("fraction", [1e200, 1e306])
def test_overflowing_contributions_are_named_not_blamed_on_rejection(fraction):
    # a huge finite width overflows the ramp antiderivative; no path is
    # rejected, so the error must name the overflow
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    qmc = _stream(config, points=32, replications=2)
    with pytest.raises(EstimationError, match=r"overflowed for component\(s\) 1, 2"):
        estimate(config, spec, qmc, method="loc", loc_fraction=fraction)


@pytest.mark.parametrize("kind", payoffs.KINDS)
def test_bump_contrast_is_the_pathwise_slope_away_from_the_kink(kind):
    # fd and the Malliavin kernel price one payoff: off the kink, the
    # central bump of (z - kink)^+ is 1{z > kink} * slope / spot, and of
    # the digital's step it is 0
    config = ladder_market(3, 4)
    spec = PayoffSpec(kind=kind, strike=0.0 if kind == "floating" else 100.0)
    normals = np.random.default_rng(5).standard_normal((512, config.nominal_dimension))
    bundle = simulate_paths(config, path_generator(config, vol_loadings(config)), normals)
    ev = payoffs.evaluate(spec, config, bundle)
    h = 1e-6
    contrast = est._bump_contrast(spec, config, ev, h)
    family = spec.family
    z, kink = family.variable(ev.average, ev.floating_strike), family.kink(spec.strike)
    reach = 10.0 * h * (np.abs(ev.average_grad) + np.abs(ev.strike_grad)).sum(axis=1)
    far = np.abs(z - kink) > reach
    if kind == "best_of":
        far &= np.abs(ev.average - ev.floating_strike) > reach
    assert far.mean() > 0.9 and (z[far] > kink).any() and (z[far] < kink).any()
    paying = (z > kink)[:, None] & (not family.laplace)
    expected = np.where(paying, family.slope(ev) / config.spots, 0.0)
    np.testing.assert_allclose(contrast[far], expected[far], rtol=0, atol=1e-8)


def test_degenerate_pilot_falls_back_with_warning(monkeypatch, caplog):
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    monkeypatch.setattr(wt, "width_by_replication_spread",
                        lambda table, widths: np.full(table.shape[2], np.nan))
    with caplog.at_level(logging.WARNING, logger="qmcgreeks.estimator"):
        report = estimate(config, spec, _stream(config), method="adaptive")
    assert np.allclose(report.localization_widths, 1.0)  # 1% of strike
    assert any("fallback width" in record.message for record in caplog.records)


@pytest.mark.parametrize("kind, seed, widths", [
    # frozen from the pilot race before it shared the main-run kernel
    ("call", 7, [10.0, 5.0, 2.0]),
    ("call", 11, [10.0, 2.0, 2.0]),
    ("floating", 7, [1.0, 5.0, 2.0]),
    ("floating", 11, [10.0, 1.0, 1.0]),
    # re-frozen when the best_of rotation stopped completing its basis
    # column by column from rounding-noise picks
    ("best_of", 7, [5.0, 2.0, 5.0]),
    ("best_of", 11, [5.0, 2.0, 20.0]),
])
def test_pilot_race_widths_are_pinned(kind, seed, widths):
    config = _market(n_assets=3, n_dates=4)
    spec = PayoffSpec(kind=kind, strike=0.0 if kind == "floating" else 100.0)
    qmc = _stream(config, points=256, replications=4, seed=seed)
    report = estimate(config, spec, qmc, method="adaptive")
    assert report.localization_widths.tolist() == widths


@pytest.mark.parametrize("kind", ["call", "digital"])
def test_adaptive_needs_two_points_per_pilot_sub_replication(kind):
    config = _market()
    spec = PayoffSpec(kind=kind, strike=100.0)
    short = _stream(config, points=est.MIN_ADAPTIVE_POINTS - 1, replications=2)
    with pytest.raises(ValueError, match="points_per_replication"):
        estimate(config, spec, short, method="adaptive")
    # the other methods have no pilot, so a short block is fine
    assert np.isfinite(estimate(config, spec, short, method="loc").deltas).all()
    enough = _stream(config, points=est.MIN_ADAPTIVE_POINTS, replications=2)
    report = estimate(config, spec, enough, method="adaptive")
    assert report.simulated_paths == 3 * est.MIN_ADAPTIVE_POINTS


def _correlation(draw, n):
    """Random positive-definite correlation from a random factor matrix."""
    factors = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n,
                                     max_size=n * n))).reshape(n, n)
    cov = factors @ factors.T + 0.2 * np.eye(n)
    scale = 1.0 / np.sqrt(np.diag(cov))
    corr = cov * scale[:, None] * scale[None, :]
    np.fill_diagonal(corr, 1.0)
    return corr


@st.composite
def _small_markets(draw):
    n_assets = draw(st.integers(1, 4))
    n_dates = draw(st.integers(2, 8))
    vols = np.array(draw(st.lists(st.floats(0.1, 0.5), min_size=n_assets,
                                  max_size=n_assets)))
    config = MarketConfig(spots=np.full(n_assets, 100.0), rate=0.03, vols=vols,
                          correlation=_correlation(draw, n_assets),
                          maturity=1.0,
                          monitoring_times=np.arange(1, n_dates + 1) / n_dates)
    return config, draw(st.sampled_from(["call", "floating", "best_of"]))


@settings(derandomize=True, deadline=None, max_examples=8)
@given(_small_markets())
def test_malliavin_deltas_agree_with_crn_finite_differences(case):
    config, kind = case
    spec = PayoffSpec(kind=kind, strike=0.0 if kind == "floating" else 100.0)
    qmc = _stream(config, points=256, replications=16)
    loc = estimate(config, spec, qmc, method="loc", loc_fraction=0.05)
    # a 1% bump leaves a curvature bias above the QMC error at low vols
    fd = estimate(config, spec, qmc, method="fd", fd_bump=1e-3)
    band = 5.0 * np.hypot(loc.stderrs, fd.stderrs)
    assert (np.abs(loc.deltas - fd.deltas) <= band).all(), (loc.deltas, fd.deltas)
    threaded = estimate(config, spec, qmc, method="loc", loc_fraction=0.05,
                        workers=2)
    assert np.array_equal(loc.replication_means, threaded.replication_means)
    assert np.array_equal(loc.deltas, threaded.deltas)
    assert np.array_equal(loc.stderrs, threaded.stderrs)
