import logging
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcgreeks import estimator as est
from qmcgreeks import payoffs
from qmcgreeks import qmc as streams
from qmcgreeks import weights as wt
from qmcgreeks.estimator import EstimationError, EstimateReport, estimate, estimate_sweep
from qmcgreeks.lt import build_lt_matrix
from qmcgreeks.market import MarketConfig, path_generator, simulate_paths, vol_loadings
from qmcgreeks.payoffs import PayoffSpec
from qmcgreeks.presets import ladder_market
from qmcgreeks.qmc import MAX_DIMENSION, QmcConfig

import helpers


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
    # at workers > 1 the pilot runs on the pool too, so the widths it
    # races must match the serial pilot's bit for bit
    config = _market()
    qmc = _stream(config)
    for kind in ("digital", "call", "best_of"):
        spec = PayoffSpec(kind=kind, strike=100.0)
        serial = estimate(config, spec, qmc, method="adaptive", workers=1)
        threaded = estimate(config, spec, qmc, method="adaptive", workers=3)
        for name in ("localization_widths", "deltas", "replication_means"):
            assert np.array_equal(getattr(serial, name), getattr(threaded, name)), \
                (kind, name)


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

    def refuses(argument, match, *args, **kwargs):
        with pytest.raises(est.ArgumentError, match=match) as refusal:
            estimate(*args, **kwargs)
        assert refusal.value.argument == argument

    refuses("method", "unknown method", config, spec, qmc, method="quadrature")
    refuses("loc_fraction", "loc_fraction", config, spec, qmc, method="loc",
            loc_fraction=0.0)
    refuses("fd_bump", "fd_bump", config, spec, qmc, method="fd", fd_bump=-0.1)
    for bad in (np.nan, np.inf):
        refuses("loc_fraction", "loc_fraction", config, spec, qmc, method="loc",
                loc_fraction=bad)
        refuses("fd_bump", "fd_bump", config, spec, qmc, method="fd", fd_bump=bad)
    # the down scenario scales the spots by 1 - fd_bump, which must stay positive
    for bad in (1.0, 1.5):
        refuses("fd_bump", "fd_bump", config, spec, qmc, method="fd", fd_bump=bad)
    refuses("workers", "workers", config, spec, qmc, workers=0)
    for bad in (1.5, 2.0, True, "2"):
        refuses("workers", "workers must be an integer", config, spec, qmc,
                workers=bad)
    # one replication has no spread, so its stderr would be a silent nan
    refuses("replications", "replications", config, spec,
            _stream(config, replications=1), method="loc")

    def unreachable(*args, **kwargs):
        raise AssertionError("rotation build started")

    # the best_of weight needs two dates, so no work may start on one
    one_date = _market(n_assets=3, n_dates=1)
    best_of = PayoffSpec(kind="best_of", strike=100.0)
    monkeypatch.setattr(est, "build_lt_matrix", unreachable)
    for method in ("adaptive", "loc"):
        refuses("monitoring_times", "2 monitoring dates; the market has 1",
                one_date, best_of, _stream(one_date), method=method)
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
    with pytest.raises(est.ArgumentError, match=r"lt_build.*\(6, 6\).*\(4, 4\)") as refusal:
        estimate(config, spec, _stream(config), lt_build=wrong)
    assert refusal.value.argument == "lt_build"
    # without the rotation the prebuilt one is never read
    monkeypatch.undo()
    estimate(config, spec, _stream(config, points=32, replications=2),
             method="loc", use_lt=False, lt_build=wrong)


def test_a_prebuilt_rotation_must_be_finite_and_orthogonal(monkeypatch):
    # R z is standard normal only if R^T R = I: unrefused, twice the reversed
    # identity moves the call deltas on this market by 9 and 45 standard
    # errors at the full protocol, and a nan rotation runs the whole pilot
    # before it fails as an overflow
    config = ladder_market(2, 4)
    spec = PayoffSpec(kind="call", strike=100.0)
    built = build_lt_matrix(config, spec)
    d = config.nominal_dimension
    reversed_identity = np.eye(d)[::-1]
    simulated = []
    monkeypatch.setattr(est, "simulate_paths", lambda *args, **kwargs: simulated.append(1))
    for matrix in (2.0 * reversed_identity, (1.0 + 1e-6) * built.matrix,
                   np.full((d, d), np.nan), np.where(np.eye(d) == 1.0, np.inf, 0.0)):
        with pytest.raises(est.ArgumentError, match="finite and orthogonal") as refusal:
            estimate(config, spec, _stream(config), lt_build=replace(built, matrix=matrix))
        assert refusal.value.argument == "lt_build"
    assert not simulated
    monkeypatch.undo()
    qmc = _stream(config, points=32, replications=2)
    for matrix in (reversed_identity, built.matrix):
        estimate(config, spec, qmc, lt_build=replace(built, matrix=matrix))
    # without the rotation the prebuilt one is never read
    estimate(config, spec, qmc, use_lt=False,
             lt_build=replace(built, matrix=2.0 * reversed_identity))


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


@pytest.mark.parametrize("kind", payoffs.KINDS)
def test_replication_means_match_an_exact_sum_of_the_kept_paths(monkeypatch, kind):
    config = _market(n_assets=3, n_dates=4)
    spec = PayoffSpec(kind=kind, strike=0.0 if kind == "floating" else 100.0)
    original = payoffs.FAMILIES[kind].weights

    def leaky(config_, jets, bundle):
        pw = original(config_, jets, bundle)
        rejected = pw.rejected.copy()
        rejected[::7, 0] = rejected[:3, 2] = True
        return wt.PathWeights(values=pw.values, rejected=rejected)

    monkeypatch.setitem(payoffs.FAMILIES, kind,
                        replace(payoffs.FAMILIES[kind], weights=leaky))
    qmc = _stream(config, points=256, replications=2)
    run = est._Run(config, spec, spec.weight_matrix(3, 4),
                   path_generator(config, vol_loadings(config)), None,
                   qmc.points_per_replication)
    scale = spec.width_scale(config)
    main_run = scale * np.array([[0.02, 0.05, 0.1]])
    race = scale * np.array(wt.WIDTH_SEARCH_FRACTIONS)[:, None]
    for widths in (main_run, race):
        # no path reaches a fixed strike this far out; the floating kind has none
        targets = [(spec.strike, widths), (1e6, widths)]
        means, counts = est._replication_means(run, qmc, 1, targets)
        _, ev, _, pw = est._replication_sample(run, qmc, 1)
        expected, bounds = helpers.fsum_replication_means(
            spec.family, targets, ev, pw, config.spots, payoffs.discount(config))
        np.testing.assert_array_equal(counts, pw.rejected.sum(axis=0))
        assert counts[0] >= 256 // 7 and counts[2] >= 3
        assert means.shape == expected.shape == (2, widths.shape[0], 3)
        assert (bounds[0] > 0.0).all()
        assert (np.abs(means - expected) <= bounds).all()
        if spec.family.fixed_strike:
            assert (bounds[1] == 0.0).all() and (means[1] == 0.0).all()


@pytest.mark.parametrize("fraction", [1e200, 1e306])
def test_overflowing_contributions_are_named_not_blamed_on_rejection(fraction):
    # a huge finite width overflows the ramp antiderivative; no path is
    # rejected, so the error must name the overflow
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    qmc = _stream(config, points=32, replications=2)
    with pytest.raises(EstimationError, match=r"overflowed for component\(s\) 1, 2"):
        estimate(config, spec, qmc, method="loc", loc_fraction=fraction)


def test_a_sum_that_overflows_from_finite_contributions_is_named(monkeypatch):
    # the ramp's remainder is never positive and at most w / 4 = 1.25 in
    # size, so each path's contribution stays finite while the sum of
    # the hundred or so that carry a remainder term overflows
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    original = payoffs.FAMILIES["call"].weights

    def huge(config_, jets, bundle):
        pw = original(config_, jets, bundle)
        return wt.PathWeights(values=np.full_like(pw.values, 1e307), rejected=pw.rejected)

    monkeypatch.setitem(payoffs.FAMILIES, "call",
                        replace(payoffs.FAMILIES["call"], weights=huge))
    with pytest.raises(EstimationError, match=r"overflowed for component\(s\) 1, 2"):
        estimate(config, spec, _stream(config, points=256, replications=2),
                 method="loc", loc_fraction=0.05)


@pytest.mark.parametrize("kind", payoffs.KINDS)
def test_bump_contrast_is_the_pathwise_slope_away_from_the_kink(kind):
    # fd and the Malliavin kernel price one payoff: off the kink, the
    # central bump of (z - K)^+ is 1{z > K} * slope / spot, and of
    # the digital's step it is 0
    config = ladder_market(3, 4)
    spec = PayoffSpec(kind=kind, strike=0.0 if kind == "floating" else 100.0)
    normals = np.random.default_rng(5).standard_normal((512, config.nominal_dimension))
    bundle = simulate_paths(config, path_generator(config, vol_loadings(config)), normals)
    ev = payoffs.evaluate(spec, config, bundle)
    h = 1e-6
    contrast = est._bump_contrast(spec.family, spec.strike, config, ev, h)
    family = spec.family
    z, strike = ev.variable, spec.strike
    reach = 10.0 * h * np.abs(ev.grads).sum(axis=(0, 2))
    far = np.abs(z - strike) > reach
    if kind == "best_of":
        far &= np.abs(ev.values[0] - ev.values[1]) > reach
    assert far.mean() > 0.9 and (z[far] > strike).any() and (z[far] < strike).any()
    paying = (z > strike)[:, None] & (not family.laplace)
    expected = np.where(paying, ev.slope / config.spots, 0.0)
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
    with pytest.raises(est.ArgumentError, match="points_per_replication") as refusal:
        estimate(config, spec, short, method="adaptive")
    assert refusal.value.argument == "points_per_replication"
    # the other methods have no pilot, so a short block is fine
    assert np.isfinite(estimate(config, spec, short, method="loc").deltas).all()
    enough = _stream(config, points=est.MIN_ADAPTIVE_POINTS, replications=2)
    report = estimate(config, spec, enough, method="adaptive")
    assert report.simulated_paths == 3 * est.MIN_ADAPTIVE_POINTS


_REPORT_ARRAYS = ("deltas", "stderrs", "replication_means", "localization_widths",
                  "rejected_by_component")


def test_a_report_keeps_its_arrays_through_the_next_estimate():
    # the draws live in per-thread buffers; nothing a report holds may view them
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    first = estimate(config, spec, _stream(config), method="adaptive")
    kept = {name: getattr(first, name).copy() for name in _REPORT_ARRAYS}
    estimate(config, spec, _stream(config, seed=8), method="adaptive")
    for name, values in kept.items():
        assert np.array_equal(getattr(first, name), values), name


def test_reports_do_not_depend_on_earlier_calls_of_other_sizes():
    # the pilot draws into leading rows of the main run's buffers; a call
    # of another size, before or after, must not show
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    reports: dict[int, list[EstimateReport]] = {256: [], 2048: []}
    for workers in (1, 2):
        for order in ((256, 2048), (2048, 256)):
            for points in order:
                qmc = _stream(config, points=points, replications=4)
                reports[points].append(estimate(config, spec, qmc, method="adaptive",
                                                workers=workers))
    for runs in reports.values():
        for report in runs[1:]:
            for name in _REPORT_ARRAYS:
                assert np.array_equal(getattr(report, name), getattr(runs[0], name))


def test_reports_do_not_depend_on_the_blas_thread_count():
    # best_of reads the product's last columns, int W ds, the ones a GEMM's
    # edge kernel computes; G is not padded, so an edge kernel that the BLAS
    # thread split chose would show here.
    # The sgemm runs in blocks of PRODUCT_ROWS = 256 draws: 512 points are
    # two whole blocks, 300 a block and a ragged 44 rows, and 128 less than
    # one block, as is every adaptive pilot sub-replication
    probe = ("import hashlib; from qmcgreeks import PayoffSpec, estimate; "
             "from qmcgreeks.presets import ladder_market, standard_stream; "
             "print(*(hashlib.sha256(estimate(ladder_market(), PayoffSpec('best_of', 90.0), "
             "standard_stream(points=points, replications=4), 'adaptive')"
             ".replication_means.tobytes()).hexdigest() for points in (512, 300, 128)))")
    src = Path(est.__file__).resolve().parents[1]
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]


def test_draw_buffers_are_freed_when_estimate_returns(monkeypatch):
    config = _market()
    spec = PayoffSpec(kind="call", strike=100.0)
    buffers = []

    def recording(original):
        def draw(*args, out=None):
            buffers.append(weakref.ref(out if out.base is None else out.base))
            return original(*args, out=out)
        return draw

    monkeypatch.setattr(streams, "replication_normals",
                        recording(streams.replication_normals))
    monkeypatch.setattr(est, "simulate_paths", recording(est.simulate_paths))
    for workers in (1, 2):
        estimate(config, spec, _stream(config), method="adaptive", workers=workers)
    assert buffers and all(ref() is None for ref in buffers)


@pytest.mark.parametrize("kind, mode, use_lt", [
    pytest.param(kind, mode, use_lt, id="-".join((kind, *branch)))
    for mode, use_lt, branch in (("scrambled_sobol", True, ()),
                                 ("pseudo_random", True, ("pseudo_random",)),
                                 ("scrambled_sobol", False, ("lt_off",)))
    for kind in ("call", "floating", "digital", "best_of")])
def test_a_sample_allocates_nothing_the_size_of_its_draws(kind, mode, use_lt):
    # two assets on 64 dates: the draws are 64 times as wide as a jet
    config = ladder_market(2, 64)
    spec = PayoffSpec(kind=kind, strike=0.0 if kind == "floating" else 100.0)
    qmc = _stream(config, points=512, mode=mode)
    rotation = build_lt_matrix(config, spec).matrix if use_lt else None
    run = est._Run(config, spec, spec.weight_matrix(2, 64),
                   path_generator(config, vol_loadings(config), rotation),
                   None, qmc.points_per_replication)
    est._replication_sample(run, qmc, 0)   # the thread's buffers now exist
    tracemalloc.start()
    try:
        est._replication_sample(run, qmc, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the unrotated build holds two draw-sized temporaries, the scaled
    # increments and their Brownian cumsum, made before the spots overwrite
    # the draws
    assert peak < (1.0 if use_lt else 2.5) * qmc.points_per_replication \
        * config.nominal_dimension * 8


@pytest.mark.parametrize("kind", ["call", "digital"])
def test_a_pooled_call_holds_one_buffer_set_per_worker(kind):
    # the pilot runs on the workers, so the calling thread never draws a
    # third buffer next to the workers' two; each worker's paths overwrite
    # its draws, so a second (P, d) buffer per worker would pass the bound
    config = ladder_market(2, 64)
    spec = PayoffSpec(kind=kind, strike=100.0)
    qmc = _stream(config, points=512, replications=4)
    buffer = qmc.points_per_replication * config.nominal_dimension * 8
    # the first call reads the Sobol directions; the traced one reuses them
    estimate(config, spec, qmc, method="adaptive", workers=2)
    tracemalloc.start()
    try:
        estimate(config, spec, qmc, method="adaptive", workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two buffers, the LT build and per worker the inverse normal's chunk
    # scratch, about 0.7 of a buffer at this size: 3.8 in all
    assert peak < 4.5 * buffer, f"peak {peak / buffer:.2f} buffers"


_STRIKES = (90.0, 95.0, 100.0, 105.0, 110.0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("method", est.METHODS)
@pytest.mark.parametrize("kind", ["call", "digital", "best_of"])
def test_a_sweep_equals_one_spec_calls_bit_for_bit(kind, method, workers):
    config = _market(n_assets=3, n_dates=4)
    qmc = _stream(config, points=128, replications=4)
    specs = [PayoffSpec(kind=kind, strike=strike) for strike in _STRIKES]
    sweep = estimate_sweep(config, specs, qmc, method, workers=workers)
    assert len(sweep) == len(specs)
    for spec, report in zip(specs, sweep):
        alone = estimate(config, spec, qmc, method, workers=workers)
        for name in _REPORT_ARRAYS:
            assert np.array_equal(getattr(report, name), getattr(alone, name)), name
        assert report.simulated_paths == alone.simulated_paths
        assert report.settings == alone.settings
        assert report.method == alone.method
        assert np.array_equal(report.lt_build.matrix, alone.lt_build.matrix)


@pytest.mark.parametrize("kind, method, pilot", [
    ("call", "adaptive", est.PILOT_SPLIT),
    ("digital", "adaptive", 1),
    ("best_of", "loc", 0),
    ("call", "fd", 0),
])
def test_a_sweep_builds_and_draws_once_whatever_its_strike_count(monkeypatch, kind,
                                                                 method, pilot):
    config = _market(n_assets=3, n_dates=4)
    qmc = _stream(config, points=64, replications=3)
    builds, draws = [], []

    def counted(calls, original):
        def call(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(est, "build_lt_matrix", counted(builds, est.build_lt_matrix))
    monkeypatch.setattr(streams, "replication_normals",
                        counted(draws, streams.replication_normals))
    for count in (1, 5):
        builds.clear()
        draws.clear()
        specs = [PayoffSpec(kind=kind, strike=strike) for strike in _STRIKES[:count]]
        reports = estimate_sweep(config, specs, qmc, method)
        assert len(builds) == 1
        assert len(draws) == qmc.replications + pilot
        # each report counts what its strike alone needs: the sweep's draws
        scenarios = 2 * config.n_assets if method == "fd" else 1
        pilot_paths = qmc.points_per_replication if pilot else 0
        assert {report.simulated_paths for report in reports} == {
            qmc.replications * qmc.points_per_replication * scenarios + pilot_paths}


def test_a_sweep_refuses_specs_that_differ_beyond_the_strike(monkeypatch):
    config = _market(n_assets=2, n_dates=2)
    qmc = _stream(config)

    def unreachable(*args, **kwargs):
        raise AssertionError("rotation build started")

    monkeypatch.setattr(est, "build_lt_matrix", unreachable)
    call = PayoffSpec(kind="call", strike=100.0)
    weighted = PayoffSpec(kind="call", strike=90.0, weights=np.array([[0.1, 0.2],
                                                                      [0.3, 0.4]]))
    for specs in ([call, PayoffSpec(kind="digital", strike=100.0)], [call, weighted],
                  []):
        with pytest.raises(est.ArgumentError, match="differ only in strike") as refusal:
            estimate_sweep(config, specs, qmc)
        assert refusal.value.argument == "specs"


def test_averaging_weights_of_the_wrong_shape_are_refused_before_any_work(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("estimation started")

    for name in ("vol_loadings", "build_lt_matrix"):
        monkeypatch.setattr(est, name, unreachable)
    config = ladder_market(2, 4)
    spec = PayoffSpec(kind="call", strike=100.0, weights=np.full((4, 2), 1 / 8))
    with pytest.raises(est.ArgumentError, match=r"weights shape \(4, 2\) does not "
                       r"match \(assets, dates\) = \(2, 4\)") as refusal:
        estimate(config, spec, _stream(config, points=64, replications=4))
    assert refusal.value.argument == "specs"


@pytest.mark.parametrize("kind, method, n_assets, n_dates, settings", [
    # the Laplace kernel underflows on every path
    ("digital", "loc", 2, 4, {"loc_fraction": 1e-310}),
    # the bump is below the aggregates' resolution
    ("digital", "fd", 2, 4, {"fd_bump": 1e-300}),
    # the floating payoff on one asset and one date is identically zero
    ("floating", "loc", 1, 1, {}),
])
def test_a_component_no_path_reached_is_named_in_a_warning(caplog, kind, method,
                                                            n_assets, n_dates, settings):
    config = _market(n_assets=n_assets, n_dates=n_dates)
    qmc = _stream(config, points=64, replications=4)
    spec = PayoffSpec(kind=kind, strike=0.0 if kind == "floating" else 100.0)
    with caplog.at_level(logging.WARNING, logger="qmcgreeks.estimator"):
        report = estimate(config, spec, qmc, method, **settings)
    assert (report.replication_means == 0.0).all()
    components = ", ".join(str(k + 1) for k in range(n_assets))
    assert [record.message for record in caplog.records] == [
        f"strike {spec.strike:g}: every replication mean is 0 for component(s) "
        f"{components}; no path contributed"]


@pytest.mark.parametrize("method", est.METHODS)
def test_a_run_where_paths_contribute_logs_nothing(caplog, method):
    config = _market(n_assets=2, n_dates=4)
    with caplog.at_level(logging.WARNING, logger="qmcgreeks.estimator"):
        estimate(config, PayoffSpec(kind="digital", strike=100.0),
                 _stream(config, points=64, replications=4), method)
    assert not caplog.records


def _rotated_generator(config):
    rotation = est.build_lt_matrix(config, PayoffSpec(kind="call", strike=100.0)).matrix
    return path_generator(config, vol_loadings(config), rotation)


@pytest.mark.parametrize("mode", streams.MODES)
def test_out_forms_draw_the_same_bits_into_out(mode):
    config = _market(n_assets=3, n_dates=4)
    d = config.nominal_dimension
    qmc = _stream(config, points=64, replications=2, mode=mode)
    normals = streams.replication_normals(qmc, 1, d)
    out = np.full((64, d), np.nan)
    drawn = streams.replication_normals(qmc, 1, d, out=out)
    assert np.shares_memory(drawn, out) and np.array_equal(drawn, normals)
    for generator in (_rotated_generator(config),
                      path_generator(config, vol_loadings(config))):
        bundle = simulate_paths(config, generator, normals)
        # exp runs over the whole of `out`, so a stale 1e300 left in it
        # would overflow, which the test settings turn into an error
        for stale in (np.nan, 1e300):
            grid = np.full((64, d), stale)
            written = simulate_paths(config, generator, drawn, out=grid)
            assert np.shares_memory(written.spot_grid, grid)
            for name in ("spot_grid", "w_terminal", "w_time_integral"):
                assert np.array_equal(getattr(written, name), getattr(bundle, name)), name
    # the path build only reads the draws
    assert np.array_equal(drawn, normals)


def test_an_unusable_out_is_refused_by_name():
    config = _market(n_assets=3, n_dates=4)
    d = config.nominal_dimension
    normals = np.zeros((64, d))
    for mode in streams.MODES:
        qmc = _stream(config, points=64, replications=2, mode=mode)
        for out in (np.empty((64, d + 1)), np.empty((64, d), dtype=np.float32),
                    np.empty((64, 2 * d))[:, ::2]):
            with pytest.raises(ValueError, match="out"):
                streams.replication_normals(qmc, 0, d, out=out)
    for generator in (_rotated_generator(config),
                      path_generator(config, vol_loadings(config))):
        for out in (np.empty((64, d + 1)), np.empty((64, d), dtype=np.float32),
                    np.empty((64, 2 * d))[:, ::2]):
            with pytest.raises(ValueError, match="out"):
                simulate_paths(config, generator, normals, out=out)


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
