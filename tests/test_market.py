import tracemalloc

import numpy as np
import pytest

from qmcgreeks import market, presets

import helpers


def _simple_config(n_assets=2, n_dates=3, rho=0.5, vols=None):
    vols = np.array([0.2, 0.4][:n_assets]) if vols is None else np.asarray(vols)
    correlation = np.full((n_assets, n_assets), rho)
    np.fill_diagonal(correlation, 1.0)
    times = np.arange(1, n_dates + 1) / n_dates
    return market.MarketConfig(spots=np.full(n_assets, 100.0), rate=0.05,
                               vols=vols, correlation=correlation,
                               maturity=1.0, monitoring_times=times)


def test_config_validation():
    good = _simple_config()
    assert good.n_assets == 2
    assert good.n_dates == 3
    assert good.nominal_dimension == 6
    with pytest.raises(ValueError, match="positive"):
        market.MarketConfig(spots=[-1.0], rate=0.05, vols=[0.2],
                            correlation=[[1.0]], maturity=1.0,
                            monitoring_times=[1.0])
    with pytest.raises(ValueError, match="spots must be a non-empty vector"):
        market.MarketConfig(spots=100.0, rate=0.05, vols=[0.2],
                            correlation=[[1.0]], maturity=1.0,
                            monitoring_times=[1.0])
    with pytest.raises(ValueError, match="vols"):
        market.MarketConfig(spots=[100.0, 100.0], rate=0.05, vols=[0.2],
                            correlation=np.eye(2), maturity=1.0,
                            monitoring_times=[1.0])
    with pytest.raises(ValueError, match="symmetric"):
        market.MarketConfig(spots=[100.0, 100.0], rate=0.05, vols=[0.2, 0.2],
                            correlation=[[1.0, 0.3], [0.2, 1.0]], maturity=1.0,
                            monitoring_times=[1.0])
    with pytest.raises(ValueError, match="diagonal"):
        market.MarketConfig(spots=[100.0, 100.0], rate=0.05, vols=[0.2, 0.2],
                            correlation=[[0.9, 0.3], [0.3, 1.0]], maturity=1.0,
                            monitoring_times=[1.0])
    with pytest.raises(ValueError, match="increasing"):
        market.MarketConfig(spots=[100.0], rate=0.05, vols=[0.2],
                            correlation=[[1.0]], maturity=1.0,
                            monitoring_times=[0.5, 0.5, 1.0])
    with pytest.raises(ValueError, match="maturity"):
        market.MarketConfig(spots=[100.0], rate=0.05, vols=[0.2],
                            correlation=[[1.0]], maturity=1.0,
                            monitoring_times=[0.5, 0.9])
    with pytest.raises(ValueError, match="correlation matrix is not positive "
                                         "definite: leading minor of order 2"):
        market.MarketConfig(spots=[100.0, 100.0], rate=0.05, vols=[0.2, 0.2],
                            correlation=[[1.0, 1.5], [1.5, 1.0]], maturity=1.0,
                            monitoring_times=[1.0])
    # nan fails every ordered comparison, so each field checks finiteness
    fields = dict(spots=[100.0, 100.0], rate=0.05, vols=[0.2, 0.2],
                  correlation=np.eye(2), maturity=1.0, monitoring_times=[0.5, 1.0])
    for name, bad in (("spots", [100.0, np.nan]), ("rate", np.nan),
                      ("rate", np.inf), ("vols", [0.2, np.inf]),
                      ("correlation", [[1.0, np.nan], [np.nan, 1.0]]),
                      ("maturity", np.nan), ("maturity", np.inf),
                      ("monitoring_times", [np.nan, 1.0])):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            market.MarketConfig(**{**fields, name: bad})


def test_config_arrays_are_read_only():
    config = _simple_config()
    with pytest.raises(ValueError):
        config.spots[0] = 1.0


def test_cholesky_reconstruction():
    config = _simple_config(n_assets=4, rho=0.5, vols=[0.1, 0.2, 0.3, 0.4])
    alpha = market.cholesky(config.correlation)
    assert np.abs(alpha @ alpha.T - config.correlation).max() < 1e-12
    assert np.abs(np.triu(alpha, 1)).max() == 0.0


def test_cholesky_names_failing_minor():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="order 2"):
        market.cholesky(bad)


def test_vol_loadings_reproduce_covariance():
    config = _simple_config(n_assets=3, rho=0.3, vols=[0.1, 0.25, 0.4])
    loadings = market.vol_loadings(config)
    product = loadings @ loadings.T
    expected = np.outer(config.vols, config.vols) * config.correlation
    assert np.abs(product - expected).max() < 1e-14


def test_grid_and_intervals():
    config = _simple_config(n_dates=4)
    assert np.array_equal(config.grid, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(config.interval_lengths, 0.25)


def test_zero_volatility_paths_are_forwards():
    config = _simple_config(vols=[0.0, 0.0])
    generator = market.path_generator(config, market.vol_loadings(config))
    normals = np.random.default_rng(0).standard_normal((50, 6))
    bundle = market.simulate_paths(config, generator, normals)
    forwards = config.spots[None, :, None] * np.exp(
        config.rate * config.monitoring_times)[None, None, :]
    assert np.abs(bundle.spot_grid - forwards).max() < 1e-12


def test_single_asset_single_date_closed_form():
    config = market.MarketConfig(spots=[100.0], rate=0.05, vols=[0.2],
                                 correlation=[[1.0]], maturity=1.0,
                                 monitoring_times=[1.0])
    generator = market.path_generator(config, market.vol_loadings(config))
    z = np.array([[0.7], [-1.3], [0.0]])
    bundle = market.simulate_paths(config, generator, z)
    expected = 100.0 * np.exp((0.05 - 0.02) + 0.2 * z[:, 0])
    assert np.allclose(bundle.spot_grid[:, 0, 0], expected, rtol=1e-14)
    assert np.allclose(bundle.w_terminal[:, 0], z[:, 0])


def test_dimension_mismatch_raises():
    config = _simple_config()
    generator = market.path_generator(config, market.vol_loadings(config))
    with pytest.raises(ValueError, match="dimension"):
        market.simulate_paths(config, generator, np.zeros((4, 5)))


def test_brownian_aggregates():
    config = _simple_config(n_dates=4)
    generator = market.path_generator(config, market.vol_loadings(config))
    normals = np.random.default_rng(1).standard_normal((20, 8))
    bundle = market.simulate_paths(config, generator, normals)
    increments = helpers.driver_increments(config, normals)
    # terminal value is the sum of increments
    assert np.allclose(bundle.w_terminal, increments.sum(axis=2))
    # trapezoid of the piecewise-linear bridge through the grid values
    w_grid = np.cumsum(increments, axis=2)
    dt = config.interval_lengths
    manual = np.zeros_like(bundle.w_terminal)
    for j in range(4):
        left = w_grid[:, :, j - 1] if j else 0.0
        manual += 0.5 * (left + w_grid[:, :, j]) * dt[j]
    assert np.allclose(bundle.w_time_integral, manual)


def test_identity_rotation_matches_no_rotation():
    config = _simple_config()
    loadings = market.vol_loadings(config)
    generator = market.path_generator(config, loadings)
    normals = np.random.default_rng(2).standard_normal((10, 6))
    plain = market.simulate_paths(config, generator, normals)
    rotated = market.simulate_paths(
        config, market.path_generator(config, loadings, rotation=np.eye(6)), normals)
    assert np.array_equal(plain.spot_grid, rotated.spot_grid)


def test_time_major_coordinate_layout():
    # bumping coordinate (j-1)*M + m must move only dates >= j of driver m
    config = _simple_config(n_dates=3)
    generator = market.path_generator(config, market.vol_loadings(config))
    base = np.zeros((1, 6))
    bumped = base.copy()
    bumped[0, 2] = 1.0  # step 2, driver 0
    b0 = market.simulate_paths(config, generator, base)
    b1 = market.simulate_paths(config, generator, bumped)
    moved = b0.spot_grid[0] != b1.spot_grid[0]
    assert not moved[:, 0].any()
    assert moved[:, 1:].all()


def test_terminal_spot_mean(monte_carlo_tolerance=0.5):
    config = _simple_config()
    generator = market.path_generator(config, market.vol_loadings(config))
    normals = np.random.default_rng(3).standard_normal((200_000, 6))
    bundle = market.simulate_paths(config, generator, normals)
    expected = 100.0 * np.exp(0.05)
    sample = bundle.spot_grid[:, :, -1].mean(axis=0)
    assert np.abs(sample - expected).max() < monte_carlo_tolerance


def test_derivative_samples_mask():
    config = _simple_config(n_dates=3)
    loadings = market.vol_loadings(config)
    generator = market.path_generator(config, loadings)
    normals = np.random.default_rng(4).standard_normal((5, 6))
    bundle = market.simulate_paths(config, generator, normals)
    samples = helpers.malliavin_derivative_samples(bundle, loadings, 1)
    assert samples.shape == (5, 2, 3, 3)
    for j in range(3):
        expected = bundle.spot_grid[:, :, j] * loadings[:, 1][None, :]
        for interval in range(3):
            block = samples[:, :, j, interval]
            if interval <= j:
                assert np.allclose(block, expected)
            else:
                assert np.abs(block).max() == 0.0


def _haar_orthogonal(d, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("vols, times, rho, rotation", [
    # one asset on one date; its only non-identity rotation is the reflection
    ([0.3], [1.0], 0.0, np.array([[-1.0]])),
    # three assets on seven non-dyadic dates, negatively correlated
    ([0.1, 0.25, 0.4], [0.13, 0.3, 0.41, 0.58, 0.77, 0.9, 1.1], -0.3,
     _haar_orthogonal(21, 5)),
    # a zero volatility next to a live one
    ([0.2, 0.0], [0.25, 0.5, 0.75, 1.0], 0.5, _haar_orthogonal(8, 6)),
])
def test_generator_matches_the_reference_build(vols, times, rho, rotation):
    m = len(vols)
    correlation = np.full((m, m), rho)
    np.fill_diagonal(correlation, 1.0)
    config = market.MarketConfig(spots=100.0 + 10.0 * np.arange(m), rate=0.03,
                                 vols=vols, correlation=correlation,
                                 maturity=times[-1], monitoring_times=times)
    loadings = market.vol_loadings(config)
    d, m = config.nominal_dimension, config.n_assets
    normals = np.random.default_rng(d).standard_normal((64, d))
    fields = ("spot_grid", "w_terminal", "w_time_integral")
    # the unrotated build is float64 throughout
    plain = market.path_generator(config, loadings)
    assert plain.matrix is None
    bundle = market.simulate_paths(config, plain, normals)
    reference = helpers.reference_paths(config, loadings, normals)
    for field in fields:
        desired = getattr(reference, field)
        np.testing.assert_allclose(getattr(bundle, field), desired, rtol=1e-13,
                                   atol=1e-13 * np.abs(desired).max(), err_msg=field)
    # the rotated product is a float32 GEMM of the float32-rounded draws and
    # G. Each entry is a d-term sum of products; float32 accumulation is
    # off by at most d * 2**-24 * sum |terms| (the standard bound
    # gamma_d = d u / (1 - d u), u = 2**-24, to first order), and G's own
    # rounding from the float64 build adds one more 2**-24 * sum |terms|.
    # The reference is the float64 build from those rounded draws, so the
    # draws' rounding cancels; the float64 remainder is held to 1e-13.
    generator = market.path_generator(config, loadings, rotation)
    assert generator.matrix.dtype == np.float32
    rounded = normals.astype(np.float32).astype(np.float64)
    bundle = market.simulate_paths(config, generator, normals)
    reference = helpers.reference_paths(config, loadings, rounded, rotation)
    terms = np.abs(rounded) @ np.abs(generator.matrix.astype(np.float64))
    bound = (d + 2) * 2.0 ** -24 * terms
    log_spot_bound = bound[:, :d].reshape(-1, m, config.n_dates)
    # exp turns an error e in log S into a relative error expm1(e)
    assert (np.abs(bundle.spot_grid / reference.spot_grid - 1.0)
            <= np.expm1(log_spot_bound) + 1e-13).all()
    for field, columns in (("w_terminal", slice(d, d + m)),
                           ("w_time_integral", slice(d + m, d + 2 * m))):
        desired = getattr(reference, field)
        assert (np.abs(getattr(bundle, field) - desired)
                <= bound[:, columns] + 1e-13 * np.abs(desired).max()).all(), field
    # an identity rotation is exactly no rotation
    plain = market.simulate_paths(config, market.path_generator(config, loadings), normals)
    identity = market.simulate_paths(
        config, market.path_generator(config, loadings, np.eye(d)), normals)
    for field in fields:
        assert np.array_equal(getattr(plain, field), getattr(identity, field))


@pytest.mark.parametrize("n_assets, n_dates", [
    (3, 7),     # d = 21, not a multiple of the block
    (7, 7),     # d = 49, one past a multiple of the block
    (10, 64),   # the benchmark ladder
])
def test_row_block_generator_equals_the_one_shot_build(n_assets, n_dates):
    correlation = np.full((n_assets, n_assets), 0.3)
    np.fill_diagonal(correlation, 1.0)
    times = np.cumsum(np.random.default_rng(n_dates).uniform(0.05, 0.3, n_dates))
    config = market.MarketConfig(spots=np.linspace(90.0, 110.0, n_assets), rate=0.03,
                                 vols=np.linspace(0.1, 0.5, n_assets),
                                 correlation=correlation, maturity=times[-1],
                                 monitoring_times=times)
    loadings = market.vol_loadings(config)
    d = config.nominal_dimension
    rotation = _haar_orthogonal(d, 7)
    generator = market.path_generator(config, loadings, rotation)
    m = config.n_assets
    one_shot = np.empty((d, d + 2 * m))
    market._brownian_sums(config, loadings, rotation.T, one_shot[:, :d],
                          one_shot[:, d:d + m], one_shot[:, d + m:])
    # G is the float64 build rounded to float32, block by block
    assert generator.matrix.dtype == np.float32
    assert np.array_equal(generator.matrix, one_shot.astype(np.float32))


def test_only_the_identity_itself_skips_the_rotation():
    config = _simple_config()
    loadings = market.vol_loadings(config)
    for rotation, skips in ((np.eye(6), True), (np.where(np.eye(6), 1.0, -0.0), True),
                            (np.eye(6)[::-1], False), (-np.eye(6), False),
                            (np.where(np.eye(6), 1.0, np.nan), False)):
        assert (market.path_generator(config, loadings, rotation).matrix is None) == skips


def test_generator_build_needs_little_more_than_its_matrix():
    config = presets.ladder_market()
    loadings = market.vol_loadings(config)
    d = config.nominal_dimension
    rotation = _haar_orthogonal(d, 3)
    tracemalloc.start()
    try:
        generator = market.path_generator(config, loadings, rotation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 G and a few float64 blocks: a float64 array of G's shape
    # would reach the bound on its own
    assert peak < 2 * generator.matrix.nbytes == d * (d + 2 * config.n_assets) * 8


def test_the_rotated_product_holds_two_row_blocks():
    # the draws are cast and multiplied PRODUCT_ROWS at a time: a cast of
    # all 2048 rows, 1 MB here, would pass the bound
    config = presets.ladder_market(2, 64)
    loadings = market.vol_loadings(config)
    d, m = config.nominal_dimension, config.n_assets
    generator = market.path_generator(config, loadings, _haar_orthogonal(d, 4))
    normals = np.random.default_rng(4).standard_normal((2048, d))
    tracemalloc.start()
    try:
        market.simulate_paths(config, generator, normals, out=normals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratches = market.PRODUCT_ROWS * (2 * d + 2 * m) * 4
    w_arrays = 2 * 2048 * m * 8
    # the upcasting add goes through numpy's two ufunc buffers, whatever the rows
    ufunc_buffers = 2 * np.getbufsize() * 8
    assert peak < scratches + w_arrays + ufunc_buffers + 4096 < normals.size * 4


@pytest.mark.parametrize("points", [
    300,    # a whole block of PRODUCT_ROWS draws and a ragged 44
    100,    # less than one block
])
@pytest.mark.parametrize("rotated", [True, False])
def test_the_spot_grid_overwrites_its_draws_bit_for_bit(points, rotated):
    config = presets.ladder_market(3, 8)
    loadings = market.vol_loadings(config)
    d = config.nominal_dimension
    generator = market.path_generator(config, loadings,
                                      _haar_orthogonal(d, 8) if rotated else None)
    assert (generator.matrix is None) != rotated
    normals = np.random.default_rng(points).standard_normal((points, d))
    apart = market.simulate_paths(config, generator, normals)
    drawn = normals.copy()
    in_place = market.simulate_paths(config, generator, drawn, out=drawn)
    assert np.shares_memory(in_place.spot_grid, drawn)
    for name in ("spot_grid", "w_terminal", "w_time_integral"):
        assert np.array_equal(getattr(in_place, name), getattr(apart, name)), name
    # out of place, the draws are only read
    assert not np.shares_memory(apart.spot_grid, normals)
    assert np.array_equal(normals, np.random.default_rng(points).standard_normal((points, d)))
