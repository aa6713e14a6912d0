import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.special import ndtr, ndtri

from qmcgreeks import qmc

import helpers


def test_dimension_one_prefix():
    values = [helpers.sobol_point(i, 1)[0] for i in range(3)]
    assert values == [0.5, 0.75, 0.25]


def test_first_point_is_all_halves():
    assert np.array_equal(helpers.sobol_point(0, 5), np.full(5, 0.5))


def test_points_are_dyadic_rationals():
    for index in (0, 3, 17, 100):
        point = helpers.sobol_point(index, 4)
        scaled = point * 2.0 ** 32
        assert np.array_equal(scaled, np.round(scaled))


def test_dimension_bounds():
    with pytest.raises(qmc.DimensionError):
        helpers.sobol_point(0, 0)
    with pytest.raises(qmc.DimensionError):
        helpers.sobol_point(0, qmc.MAX_DIMENSION + 1)
    with pytest.raises(ValueError):
        helpers.sobol_point(-1, 1)


def test_identity_scramble_is_noop():
    raw = helpers.raw_sobol_block(3, 16)
    identity = helpers.identity_scramble(3)
    assert np.array_equal(identity.apply(raw), raw)


def test_scramble_deterministic_in_seed():
    raw = helpers.raw_sobol_block(4, 32)
    once = helpers.scramble(raw, 2024)
    again = helpers.scramble(raw, 2024)
    other = helpers.scramble(raw, 2025)
    assert np.array_equal(once, again)
    assert not np.array_equal(once, other)


def _box_counts_all_one(points: np.ndarray, k: int) -> bool:
    for k1 in range(k + 1):
        k2 = k - k1
        counts = np.zeros((2 ** k1, 2 ** k2), dtype=int)
        for x, y in points:
            counts[int(x * 2 ** k1), int(y * 2 ** k2)] += 1
        if not (counts == 1).all():
            return False
    return True


def _underlying_block(k: int) -> np.ndarray:
    # the streamed points skip the origin; the net property belongs to
    # the underlying generator block that includes it
    streamed = [helpers.sobol_point(i, 2) for i in range(2 ** k - 1)]
    return np.vstack([np.zeros(2), *streamed])


def test_net_property_of_underlying_block():
    assert _box_counts_all_one(_underlying_block(3), 3)
    assert _box_counts_all_one(_underlying_block(4), 4)


def test_scrambling_preserves_net_property():
    block = _underlying_block(4)
    raw = np.round(block * 2.0 ** 32).astype(np.uint64)
    for seed in (1, 7, 99):
        unit = helpers.to_unit(helpers.scramble(raw, seed))
        assert _box_counts_all_one(unit, 4)


def test_stream_uniformity():
    config = qmc.QmcConfig(points_per_replication=2048,
                           replications=1, lss_block_dimension=5, seed=3)
    u = qmc.replication_uniforms(config, 0, 12)
    bound = 3.0 / np.sqrt(12.0 * 2048)
    assert np.abs(u.mean(axis=0) - 0.5).max() < bound


def test_to_unit_stays_inside_open_interval(monkeypatch):
    # the identity scramble's stream point 0 is v_0 XOR shift = 2**31 XOR
    # shift, so shifts 2**31 and 2**31 - 1 give the extreme integers 0 and
    # 2**32 - 1, which lss_assemble must map inside (0, 1)
    shift = np.array([2 ** 31, 2 ** 31 - 1], dtype=np.uint64)
    monkeypatch.setattr(qmc.DigitalScramble, "random", classmethod(
        lambda cls, dims, rng: qmc.DigitalScramble(
            helpers.identity_scramble(dims).columns, shift[:dims])))
    config = qmc.QmcConfig(points_per_replication=1, replications=1,
                           lss_block_dimension=2, seed=0)
    u = qmc.lss_assemble(config, 0, 2)
    assert u[0, 0] == 2.0 ** -53
    assert u[0, 1] == (2 ** 32 - 1) * 2.0 ** -32
    assert u[0, 1] <= 1.0 - 2.0 ** -53
    assert 0.0 < u[0, 0] < u[0, 1] < 1.0


def test_inverse_normal_values():
    assert qmc.to_normal(np.array([0.5]))[0] == 0.0
    assert qmc.to_normal(np.array([0.975]))[0] == pytest.approx(1.959964, abs=1e-6)
    z = qmc.to_normal(np.array([0.31, 0.69]))
    assert z[0] == pytest.approx(-z[1], abs=1e-12)


def test_inverse_normal_round_trip():
    u = np.geomspace(1e-10, 0.5, 40)
    u = np.concatenate([u, 1.0 - u])
    assert np.abs(ndtr(qmc.to_normal(u)) - u).max() < 1e-9


def test_inverse_normal_domain():
    with pytest.raises(ValueError):
        qmc.to_normal(np.array([0.0]))
    with pytest.raises(ValueError):
        qmc.to_normal(np.array([1.0]))
    # nan fails both bounds, and the check warns about nothing
    with pytest.raises(ValueError):
        qmc.to_normal(np.array([0.5, np.nan]))


# (p, its standard normal quantile to 22 digits), computed offline by
# Newton steps on the normal CDF at 40 digits; the two points near
# e**-25 lie on either side of the r = sqrt(-log p) = 5 branch edge
_QUANTILES = (
    (2.0 ** -53, -8.209536151601386855631),
    (2.0 ** -32, -6.230260137989043163025),
    (1.3887943864963947e-11, -6.657904643501104370431),
    (1.3887943864963948e-11, -6.657904643501104353328),
    (0.075, -1.439531470938455934950),
    (0.5, 0.0),
    (0.925, 1.439531470938456229063),
    (0.9999999999861121, 6.657905204845547456602),
    (1.0 - 2.0 ** -32, 6.230260137989043163025),
    (1.0 - 2.0 ** -53, 8.209536151601386855631),
)


def test_inverse_normal_matches_high_precision_quantiles():
    p, exact = (np.array(column) for column in zip(*_QUANTILES))
    z = qmc.to_normal(p)
    assert z[p == 0.5] == 0.0
    assert np.all(np.abs(z - exact) <= 4 * np.spacing(np.abs(exact)))


def test_inverse_normal_agrees_with_scipy_ndtri_on_the_sobol_lattice():
    # 2**20 lattice points k / 2**32, the values scrambled Sobol points take
    p = np.arange(1, 2 ** 32, 2 ** 12, dtype=np.float64) / 2.0 ** 32
    z, reference = qmc.to_normal(p), ndtri(p)
    assert np.all(np.abs(z - reference) <= 8 * np.spacing(np.abs(reference)))


def test_inverse_normal_is_exactly_antisymmetric_and_increasing():
    # on the lattice both p and 1 - p are exact, so q = p - 1/2 flips sign exactly
    low = np.arange(1, 2 ** 31, 2 ** 11, dtype=np.float64) / 2.0 ** 32
    z = qmc.to_normal(low)
    high = qmc.to_normal(1.0 - low)
    assert np.array_equal(high, -z)
    assert np.all(np.diff(np.concatenate([z, high[::-1]])) > 0)
    # the branch edges at |p - 1/2| = 0.425 and at r = 5
    for centre in (0.075, 0.925, 1.3887943864963947e-11):
        p = centre * (1.0 + np.arange(-512, 513) * 2.0 ** -40)
        assert np.all(np.diff(qmc.to_normal(p)) > 0)


@pytest.mark.parametrize("size", [0, 1, qmc._CHUNK - 1, qmc._CHUNK, qmc._CHUNK + 1,
                                  4 * qmc._CHUNK - 1, 4 * qmc._CHUNK + 1])
def test_inverse_normal_chunks_cover_every_element(size):
    p = np.random.default_rng(size).random(size)
    z, reference = qmc.to_normal(p), ndtri(p)
    assert z.shape == (size,)
    assert np.all(np.abs(z - reference) <= 8 * np.spacing(np.abs(reference)))


def test_inverse_normal_in_place_equals_out_of_place():
    # 300 x 217 is no multiple of the chunk, and two tails share every chunk
    unit = np.random.default_rng(5).random((300, 217))
    fresh = qmc.to_normal(unit)
    into = np.empty_like(unit)
    assert qmc.to_normal(unit, out=into) is into
    drawn = unit.copy()
    assert qmc.to_normal(drawn, out=drawn) is drawn
    assert fresh.shape == unit.shape
    assert np.array_equal(fresh, into) and np.array_equal(fresh, drawn)
    assert np.array_equal(fresh, qmc.to_normal(np.asfortranarray(unit)))


def _float32_ulps(z: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """|z - reference| in float32 spacings at the reference's magnitude."""
    spacing = np.spacing(np.abs(reference).astype(np.float32)).astype(np.float64)
    return np.abs(z.astype(np.float64) - reference) / spacing


def _leading_float32(unit: np.ndarray) -> np.ndarray:
    """The float32 array of unit's shape over the leading half of its bytes."""
    return unit.reshape(-1).view(np.float32)[:unit.size].reshape(unit.shape)


def test_float32_inverse_normal_stays_within_a_few_ulps_of_float64():
    # the Sobol lattice k / 2**32, both edges of each branch at
    # |p - 1/2| = 0.425 and at r = 5, the clipped uniforms and 1/2;
    # the largest gap seen is 6.2 ulps, near p = 0.505
    lattice = np.arange(1, 2 ** 32, 2 ** 12, dtype=np.float64) / 2.0 ** 32
    steps = np.arange(-512, 513) * 2.0 ** -40
    edges = [centre * (1.0 + steps) for centre in (0.075, 0.925, 1.3887943864963947e-11)]
    p = np.concatenate([lattice, *edges, [2.0 ** -53, 1.0 - 2.0 ** -53, 0.5]])
    reference = qmc.to_normal(p)
    z = qmc.to_normal(p, out=np.empty(p.shape, np.float32))
    assert z.dtype == np.float32
    assert _float32_ulps(z, reference).max() <= 8.0
    assert z[p == 0.5] == 0.0


def test_float32_inverse_normal_is_exactly_antisymmetric():
    low = np.arange(1, 2 ** 31, 2 ** 11, dtype=np.float64) / 2.0 ** 32
    # 1 - p is exact on the lattice and at the clipped uniform, which
    # takes the far tail's rational
    low = np.append(low, 2.0 ** -53)
    z = qmc.to_normal(low, out=np.empty(low.shape, np.float32))
    high = qmc.to_normal(1.0 - low, out=np.empty(low.shape, np.float32))
    assert np.array_equal(high, -z)


@pytest.mark.parametrize("size", [0, 1, qmc._CHUNK - 1, qmc._CHUNK + 1,
                                  4 * qmc._CHUNK - 1, 4 * qmc._CHUNK + 1])
def test_float32_normals_over_their_own_uniforms_equal_a_separate_out(size):
    # a float32 chunk [s, e) overlays the uniforms [s/2, e/2), already read
    unit = np.random.default_rng(size).random(size)
    apart = qmc.to_normal(unit, out=np.empty(size, np.float32))
    drawn = unit.copy()
    leading = _leading_float32(drawn)
    assert qmc.to_normal(drawn, out=leading) is leading
    assert np.array_equal(leading, apart)


@pytest.mark.parametrize("out", [
    np.empty((217, 300), np.float32),                    # transposed shape
    np.empty((300 * 217,), np.float32),                  # flattened
    np.empty((300, 217), np.float32, order="F"),         # Fortran order
    np.empty((300, 434), np.float32)[:, ::2],            # strided
    np.empty((300, 217), np.float16),                    # another precision
])
def test_an_unusable_float32_out_is_refused_by_name(out):
    unit = np.random.default_rng(6).random((300, 217))
    with pytest.raises(ValueError, match="^out must be a C-contiguous float64 or float32"):
        qmc.to_normal(unit, out=out)


def test_replication_normals_are_float32_over_the_leading_half_of_out():
    config = qmc.QmcConfig(points_per_replication=300, replications=2,
                           lss_block_dimension=50, seed=3)
    draws = np.empty((300, 217))
    normals = qmc.replication_normals(config, 1, 217, out=draws)
    assert normals.dtype == np.float32 and normals.flags.c_contiguous
    assert normals.__array_interface__["data"][0] == draws.__array_interface__["data"][0]
    unit = qmc.replication_uniforms(config, 1, 217)
    assert np.array_equal(normals, qmc.to_normal(unit, out=np.empty(unit.shape, np.float32)))
    fresh = qmc.replication_normals(config, 1, 217)
    assert np.array_equal(fresh, normals)


def test_config_validation():
    good = dict(points_per_replication=8,
                replications=2, lss_block_dimension=5, seed=1)
    qmc.QmcConfig(**good)
    for field, bad in (("points_per_replication", 0),
                       ("replications", 0), ("lss_block_dimension", 0),
                       ("seed", -1), ("seed", 2 ** 63), ("mode", "antithetic")):
        with pytest.raises(qmc.ArgumentError, match=field) as refusal:
            qmc.QmcConfig(**{**good, field: bad})
        assert refusal.value.argument == field
    # a count or seed must be a whole number, not one a float or bool stands for
    for field in ("points_per_replication", "replications", "lss_block_dimension",
                  "seed"):
        for bad in (1.5, 4.0, np.float64(4.0), True, np.True_, "4", None):
            with pytest.raises(qmc.ArgumentError,
                               match=f"{field} must be an integer") as refusal:
                qmc.QmcConfig(**{**good, field: bad})
            assert refusal.value.argument == field
        assert qmc.QmcConfig(**{**good, field: np.int64(good[field])}) == (
            qmc.QmcConfig(**good))


def test_the_32_bit_sobol_net_caps_the_point_count():
    # 2**BITS - 1 stream points fill the net, whose BITS directions are all
    # nonzero; one more would need a direction the net does not have
    good = dict(replications=2, lss_block_dimension=3, seed=1)
    largest = 2 ** qmc.BITS - 1
    full = qmc.QmcConfig(points_per_replication=largest, **good)
    assert full.points_per_replication == largest
    directions = qmc._gray_code_table(3, largest)
    assert directions.shape == (qmc.BITS, 3) and directions.all()
    for count in (2 ** qmc.BITS, np.int64(2 ** qmc.BITS), 2 ** 64):
        with pytest.raises(qmc.ArgumentError, match=(
                f"points_per_replication {count} exceeds the 32-bit Sobol net "
                f"\\({largest} points\\)")) as refusal:
            qmc.QmcConfig(points_per_replication=count, **good)
        assert refusal.value.argument == "points_per_replication"
    # pseudo-random draws have no net, so their count stays uncapped
    pseudo = qmc.QmcConfig(points_per_replication=2 ** 64, mode="pseudo_random", **good)
    assert pseudo.points_per_replication == 2 ** 64


def test_block_sizes_with_truncated_tail():
    config = qmc.QmcConfig(points_per_replication=8,
                           replications=1, lss_block_dimension=50, seed=0)
    assert config.block_sizes(640) == (50,) * 12 + (40,)
    single = qmc.QmcConfig(points_per_replication=8,
                           replications=1, lss_block_dimension=50, seed=0)
    assert single.block_sizes(50) == (50,)


def test_a_block_wider_than_the_draws_is_one_block():
    wide = qmc.QmcConfig(points_per_replication=64, replications=1,
                         lss_block_dimension=50, seed=5)
    exact = qmc.QmcConfig(points_per_replication=64, replications=1,
                          lss_block_dimension=7, seed=5)
    assert wide.block_sizes(7) == (7,)
    assert np.array_equal(qmc.lss_assemble(wide, 0, 7), qmc.lss_assemble(exact, 0, 7))


def test_supercube_columns_are_block_permutations():
    config = qmc.QmcConfig(points_per_replication=64,
                           replications=2, lss_block_dimension=4, seed=5)
    u = qmc.replication_uniforms(config, 1, 7)
    raw = helpers.raw_sobol_block(4, 64)
    for block, width in enumerate(config.block_sizes(7)):
        rng = qmc._substream(config.seed, 1, qmc._TAG_SCRAMBLE, block)
        ints = qmc.DigitalScramble.random(width, rng).apply(raw[:, :width])
        expected = helpers.to_unit(ints)
        start = block * 4
        got = u[:, start:start + width]
        assert np.array_equal(np.sort(got, axis=0), np.sort(expected, axis=0))
        assert not np.array_equal(got, expected) or width == 0


def test_replications_are_reproducible_and_distinct():
    config = qmc.QmcConfig(points_per_replication=32,
                           replications=3, lss_block_dimension=3, seed=9)
    first = qmc.replication_uniforms(config, 0, 6)
    assert np.array_equal(first, qmc.replication_uniforms(config, 0, 6))
    assert not np.array_equal(first, qmc.replication_uniforms(config, 1, 6))


def test_pseudo_random_mode():
    config = qmc.QmcConfig(points_per_replication=128,
                           replications=2, lss_block_dimension=3, seed=9,
                           mode="pseudo_random")
    u = qmc.replication_uniforms(config, 0, 6)
    assert u.shape == (128, 6)
    assert ((u > 0.0) & (u < 1.0)).all()
    assert np.array_equal(u, qmc.replication_uniforms(config, 0, 6))
    z = qmc.replication_normals(config, 1, 6)
    assert z.shape == (128, 6)
    assert np.isfinite(z).all()


def test_every_uniform_source_clips_inside_the_open_interval(monkeypatch):
    # to_normal refuses 0 and 1, so every uniform source must clip inside
    # (0, 1). A scrambled Sobol point reads at most 1 - 2**-32, but it can
    # be 0: the identity scramble with shift v_0 = 2**31 zeroes stream
    # point 0 in every dimension, and only that entry of each column
    shift = np.full(3, 2 ** 31, dtype=np.uint64)
    monkeypatch.setattr(qmc.DigitalScramble, "random", classmethod(
        lambda cls, dims, rng: qmc.DigitalScramble(
            helpers.identity_scramble(dims).columns, shift[:dims])))
    config = qmc.QmcConfig(points_per_replication=8, replications=1,
                           lss_block_dimension=2, seed=0)
    u = qmc.replication_uniforms(config, 0, 3)
    assert ((u > 0.0) & (u < 1.0)).all()
    assert ((u == 2.0 ** -53).sum(axis=0) == 1).all()
    assert np.isfinite(qmc.replication_normals(config, 0, 3)).all()

    # the pseudo-random clip, on the generator's extreme outputs
    class Extremes:
        def random(self, out):
            out[...] = np.resize([0.0, np.nextafter(1.0, 0.0)], out.shape)
            return out

    config = qmc.QmcConfig(points_per_replication=4, replications=1,
                           lss_block_dimension=1, seed=0, mode="pseudo_random")
    monkeypatch.setattr(qmc, "_substream", lambda *key: Extremes())
    u = qmc.replication_uniforms(config, 0, 3)
    assert ((u > 0.0) & (u < 1.0)).all()
    assert np.isfinite(qmc.replication_normals(config, 0, 3)).all()


def test_scramble_matrix_draw_matches_per_digit_loop():
    for seed in range(5):
        for dims in (1, 7, 50):
            rng = np.random.default_rng(seed)
            columns = np.empty((dims, qmc.BITS), dtype=np.uint64)
            for digit in range(qmc.BITS):
                diagonal = np.uint64(1) << np.uint64(qmc.BITS - 1 - digit)
                below = rng.integers(0, int(diagonal), size=dims, dtype=np.uint64)
                columns[:, digit] = diagonal | below
            shift = rng.integers(0, 2 ** qmc.BITS, size=dims, dtype=np.uint64)
            drawn = qmc.DigitalScramble.random(dims, np.random.default_rng(seed))
            assert np.array_equal(drawn.columns, columns)
            assert np.array_equal(drawn.shift, shift)


def test_scramble_apply_matches_per_digit_loop():
    # the reference XORs in one matrix column per set digit of the point
    raw = np.random.default_rng(3).integers(0, 2 ** qmc.BITS, size=(40, 7),
                                            dtype=np.uint64)
    for seed in range(5):
        scramble = qmc.DigitalScramble.random(7, np.random.default_rng(seed))
        expected = np.zeros_like(raw)
        for digit in range(qmc.BITS):
            bit = (raw >> np.uint64(qmc.BITS - 1 - digit)) & np.uint64(1)
            expected ^= bit * scramble.columns[None, :, digit]
        assert np.array_equal(scramble.apply(raw), expected ^ scramble.shift)


@pytest.mark.parametrize("dimension,count", [
    (1, 1), (1, 2), (7, 3), (9, 4096),
    (50, 2048), (1111, 4096), (3, 100_000),
    (qmc.MAX_DIMENSION, 16),
])
def test_stream_is_gray_code_ordered(dimension, count):
    raw = helpers.raw_sobol_block(dimension, count)
    directions = qmc._gray_code_table(dimension, count)
    assert directions.shape == (count.bit_length(), dimension)
    assert directions.dtype == raw.dtype
    # net point k + 1 is stream point k, net point 0 the origin; the Gray
    # code reflects: net point 2^c + t is v_c XOR net point 2^c - 1 - t,
    # which fixes every stream point from the origin
    net = np.vstack([np.zeros((1, dimension), dtype=np.uint64), raw])
    for c, direction in enumerate(directions):
        t = np.arange(min(2 ** c, count + 1 - 2 ** c))
        assert np.array_equal(net[2 ** c + t], direction ^ net[2 ** c - 1 - t])


@pytest.mark.parametrize("points", [1, 2, 3, 255, 256, 257, 1000, 2048])
@pytest.mark.parametrize("nominal, block", [(1, 1), (7, 3), (50, 50), (107, 50)])
def test_lss_assemble_matches_per_point_scramble(points, nominal, block):
    config = qmc.QmcConfig(points_per_replication=points,
                           replications=2, lss_block_dimension=block, seed=77)
    for replication in (0, 1):
        assert np.array_equal(qmc.lss_assemble(config, replication, nominal),
                              helpers.per_point_uniforms(config, replication, nominal))


def test_replication_uniforms_frozen_digest():
    # digest recorded from the per-point scramble before the direction-table form
    config = qmc.QmcConfig(points_per_replication=100,
                           replications=2, lss_block_dimension=3, seed=2024)
    u = qmc.replication_uniforms(config, 1, 7)
    assert u.dtype == np.float64 and u.shape == (100, 7)
    assert hashlib.sha256(u.tobytes()).hexdigest() == (
        "2008840b1fff7e2dfc5d993bae9054b5e87e078e9a18bdb2a6a3a74df9670858")


def test_sobol_table_caps_the_block_not_the_nominal_dimension():
    wide = qmc.MAX_DIMENSION + 1
    qmc.QmcConfig(points_per_replication=4,
                  replications=2, lss_block_dimension=50, seed=1)
    with pytest.raises(qmc.DimensionError, match="lss_block_dimension"):
        qmc.QmcConfig(points_per_replication=4,
                      replications=2, lss_block_dimension=wide, seed=1)
    pseudo = qmc.QmcConfig(points_per_replication=4,
                           replications=2, lss_block_dimension=wide, seed=1,
                           mode="pseudo_random")
    assert qmc.replication_uniforms(pseudo, 0, wide).shape == (4, wide)


@pytest.mark.parametrize("mode", qmc.MODES)
def test_draws_need_a_dimension_of_at_least_one(mode):
    config = qmc.QmcConfig(points_per_replication=4, replications=2,
                           lss_block_dimension=3, seed=1, mode=mode)
    for dimension in (0, -1):
        with pytest.raises(qmc.DimensionError, match="at least 1"):
            qmc.replication_normals(config, 0, dimension)
    with pytest.raises(qmc.DimensionError, match="at least 1"):
        qmc.lss_assemble(config, 0, 0)


@pytest.mark.parametrize("mode", qmc.MODES)
def test_block_sizes_refuse_a_dimension_below_one_as_the_draws_do(mode):
    config = qmc.QmcConfig(points_per_replication=4, replications=2,
                           lss_block_dimension=3, seed=1, mode=mode)
    for dimension in (0, -1):
        with pytest.raises(qmc.DimensionError) as blocks:
            config.block_sizes(dimension)
        with pytest.raises(qmc.DimensionError) as draws:
            qmc.replication_normals(config, 0, dimension)
        assert str(blocks.value) == str(draws.value) == (
            f"dimension must be at least 1; got {dimension}")


def test_package_import_leaves_scipy_stats_unloaded():
    # the direction table ships with the package and the inverse normal
    # is numpy's, so neither the package nor its CLI loads any scipy
    # module, and with scipy blocked from the import system every kind
    # still imports and estimates
    src = Path(qmc.__file__).resolve().parents[1]
    loaded = ("import sys, qmcgreeks, qmcgreeks.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    blocked = ("import sys; sys.modules['scipy'] = None; "
               "import qmcgreeks, qmcgreeks.cli; "
               "from qmcgreeks.estimator import estimate; "
               "from qmcgreeks.payoffs import PayoffSpec; "
               "from qmcgreeks.presets import ladder_market, standard_stream; "
               "market = ladder_market(2, 2); "
               "qmc = standard_stream(points=16, replications=2); "
               "print([estimate(market, PayoffSpec(kind, strike), qmc).deltas.shape "
               "for kind, strike in (('call', 100.0), ('floating', 0.0), "
               "('digital', 100.0), ('best_of', 100.0))])")
    env = {**os.environ, "PYTHONPATH": str(src)}
    for probe, printed in ((loaded, "[]"), (blocked, "[(2,), (2,), (2,), (2,)]")):
        run = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == printed


def test_shipped_direction_table_matches_scipys_file():
    # joe_kuo.npy repacks scipy's two members into one C-order uint32
    # array: row i is dimension i's polynomial, then its 18 initial
    # direction numbers; this builds it from scipy's file and compares
    scipy_table = Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz"
    with np.load(scipy_table) as reference:
        expected = np.column_stack([reference["poly"], reference["vinit"]])
    assert expected.min() >= 0 and expected.max() < 2 ** 32
    shipped = np.load(qmc._JOE_KUO_TABLE)
    assert shipped.dtype == np.uint32 and shipped.flags.c_contiguous
    assert shipped.shape == expected.shape == (qmc.MAX_DIMENSION, 19)
    assert qmc.MAX_DIMENSION == 21201
    assert np.array_equal(shipped, expected)


def test_a_first_draw_keeps_nothing_of_the_whole_direction_table():
    # a run reads only its block's rows of the 21,201-row Joe-Kuo table,
    # so after the first draw a process keeps the block's direction
    # table (about 20 KB) and nothing of the 1.6 MB file, and the first
    # draw's traced peak stays within 10% of a second one's, which finds
    # that table cached
    src = Path(qmc.__file__).resolve().parents[1]
    probe = ("import tracemalloc, numpy as np; from qmcgreeks import qmc; "
             "config = qmc.QmcConfig(points_per_replication=2048, replications=2, "
             "lss_block_dimension=50, seed=42); out = np.empty((2048, 640)); "
             "tracemalloc.start(); qmc.lss_assemble(config, 0, 640, out=out); "
             "kept, first = tracemalloc.get_traced_memory(); tracemalloc.reset_peak(); "
             "qmc.lss_assemble(config, 1, 640, out=out); "
             "print(kept, first, tracemalloc.get_traced_memory()[1])")
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    kept, first, second = map(int, run.stdout.split())
    print(f"kept {kept} B; traced peak of the first draw {first} B, "
          f"of the second {second} B")
    assert kept < 256 * 1024
    assert first <= 1.1 * second, (first, second)
