"""Randomized quasi-Monte Carlo point streams.

The sampling pipeline runs in four stages: Sobol direction integers, an
affine digit scramble with a digital shift per dimension, Latin
supercube assembly of high-dimensional points from moderate-dimensional
blocks, and the inverse normal map. Every stage is deterministic given
the master seed; replication substreams are derived by counter-based
key splitting so any replication can be regenerated in isolation.

The direction integers are the Joe & Kuo numbers (SIAM J. Sci. Comput.
2008), expanded by the Bratley & Fox recurrence (ACM TOMS 1988,
Algorithm 659). Their primitive polynomials and initial values ship
with the package as joe_kuo.npy, one uint32 row per dimension repacked
from the file scipy's own Sobol engine reads, under scipy's BSD-3
licence (joe_kuo.LICENSE.txt).

The inverse normal is Wichura's AS241 (Applied Statistics 37, 1988),
three rational functions of degree 7 over 7 that need only arithmetic,
log and sqrt, evaluated with numpy in chunks of the draws. In float64
it is accurate to about 1e-16 relative; on the Sobol lattice k / 2**32
it stays within 7 ulp of scipy.special.ndtri. The same rationals run
in float32 for the draws of a replication, which the path product
reads in float32: q = p - 1/2 and a tail's min(p, 1 - p) are taken in
float64 and then rounded, so the result stays within 8 float32 ulps
of the float64 quantile, and the float32 normals are written over the
leading half of their own uniforms' bytes. The tails' np.log follows
numpy's SIMD dispatch, so the last bits of a tail normal may differ
between CPUs that numpy runs on different loops, though never between
runs on one machine.

The scramble acts on direction integers, not on points. The Sobol
stream is generated in Gray-code order, and the Gray code reflects: net
point 2^c + t is net point 2^c - 1 - t XOR the direction v_c. The
scramble is affine over GF(2), so a block of n points needs only its
floor(log2 n) + 1 directions scrambled, and each doubling of the
scrambled net is its reversed first half XOR one scrambled direction
(Hong & Hickernell, Algorithm 823, ACM TOMS 2003). The result equals
scrambling every point bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

BITS = 32
MAX_DIMENSION = 21201
UNIT_LOW = 2.0 ** -53
UNIT_HIGH = 1.0 - 2.0 ** -53
MODES = ("scrambled_sobol", "pseudo_random")

_ONE = np.uint64(1)
# bit shift of digit 0 (the most significant) through digit BITS - 1
_DIGIT_SHIFTS = np.arange(BITS - 1, -1, -1, dtype=np.uint64)
_JOE_KUO_TABLE = Path(__file__).with_name("joe_kuo.npy")

# Wichura's AS241 (PPND16): (numerator, denominator) coefficients of its
# three rationals, constant term first
_CENTRAL = ((3.3871328727963666080e0, 1.3314166789178437745e+2,
             1.9715909503065514427e+3, 1.3731693765509461125e+4,
             4.5921953931549871457e+4, 6.7265770927008700853e+4,
             3.3430575583588128105e+4, 2.5090809287301226727e+3),
            (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2,
             5.3941960214247511077e+3, 2.1213794301586595867e+4,
             3.9307895800092710610e+4, 2.8729085735721942674e+4,
             5.2264952788528545610e+3))
_TAIL_NEAR = ((1.42343711074968357734e0, 4.63033784615654529590e0,
               5.76949722146069140550e0, 3.64784832476320460504e0,
               1.27045825245236838258e0, 2.41780725177450611770e-1,
               2.27238449892691845833e-2, 7.74545014278341407640e-4),
              (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
               6.89767334985100004550e-1, 1.48103976427480074590e-1,
               1.51986665636164571966e-2, 5.47593808499534494600e-4,
               1.05075007164441684324e-9))
_TAIL_FAR = ((6.65790464350110377720e0, 5.46378491116411436990e0,
              1.78482653991729133580e0, 2.96560571828504891230e-1,
              2.65321895265761230930e-2, 1.24266094738807843860e-3,
              2.71155556874348757815e-5, 2.01033439929228813265e-7),
             (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
              1.48753612908506148525e-2, 7.86869131145613259100e-4,
              1.84631831751005468180e-5, 1.42151175831644588870e-7,
              2.04426310338993978564e-15))
# elements per pass of the inverse normal, and a quarter of the draws at
# most, so its two scratch chunks stay inside the size of small draws;
# float32 chunks take half the bytes. Each pass makes about 90 numpy
# calls, each dropping and retaking the GIL: converting 2048 x 640 draws
# to float32 on two worker threads at once took a median of 17.6 ms per
# thread at this size, 23.6 at half of it and 14.4 at twice it, while
# one thread took 11.4-11.9 ms at all three. Twice this size, the bytes
# of two float64 chunks, raised the finite-difference sweep's peak RSS
# by 1.2 MB at two workers.
_CHUNK = 65536

# substream purposes; part of the reproducibility contract
_TAG_PSEUDO = 0
_TAG_SCRAMBLE = 1
_TAG_ORDER = 2


class ArgumentError(ValueError):
    """A refused input; `argument` names the parameter or field."""

    def __init__(self, argument: str, message: str) -> None:
        super().__init__(message)
        self.argument = argument


class DimensionError(ArgumentError):
    """Requested dimension is below 1 or outside the supported Sobol table."""


def _check_count(name: str, value, least: int) -> None:
    """Refuse `value` as `name` unless it is an integer of at least `least`;
    numpy integers pass, bools do not."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ArgumentError(name, f"{name} must be an integer; got {value!r}")
    if value < least:
        raise ArgumentError(name, f"{name} must be at least {least}; got {value}")


@dataclass(frozen=True)
class QmcConfig:
    """Sampling plan for one estimation run, independent of the market.

    points_per_replication is the number of points per randomization and
    replications the number of independent randomizations feeding the
    error estimate; the draws take their dimension d from the market.
    When d exceeds lss_block_dimension, points are assembled from
    scrambled Sobol blocks of that size whose run orders are permuted
    independently (Latin supercube sampling); the final block is
    truncated to the leftover dimensions. Only a block draws Sobol
    columns, so the Sobol table caps lss_block_dimension, not d, and
    the 32-bit net caps points_per_replication below 2**BITS. The
    counts and the seed must be integers, numpy's included but not
    bools; each refusal is an ArgumentError naming its field.
    """

    points_per_replication: int
    replications: int
    lss_block_dimension: int
    seed: int
    mode: str = "scrambled_sobol"

    def __post_init__(self) -> None:
        for name in ("points_per_replication", "replications", "lss_block_dimension"):
            _check_count(name, getattr(self, name), 1)
        _check_count("seed", self.seed, 0)
        if self.seed >= 2 ** 63:
            raise ArgumentError("seed", "seed must be a non-negative integer below 2**63")
        if self.mode not in MODES:
            raise ArgumentError("mode", f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "scrambled_sobol" and self.lss_block_dimension > MAX_DIMENSION:
            raise DimensionError(
                "lss_block_dimension", f"lss_block_dimension {self.lss_block_dimension} "
                f"exceeds the supported Sobol table ({MAX_DIMENSION} dimensions)")
        if self.mode == "scrambled_sobol" and self.points_per_replication >= 2 ** BITS:
            raise ArgumentError(
                "points_per_replication", f"points_per_replication "
                f"{self.points_per_replication} exceeds the {BITS}-bit Sobol net "
                f"({2 ** BITS - 1} points)")

    def block_sizes(self, dimension: int) -> tuple[int, ...]:
        """Supercube block dimensions covering `dimension`, the last possibly truncated."""
        if dimension < 1:
            raise DimensionError("dimension",
                                 f"dimension must be at least 1; got {dimension}")
        b = min(self.lss_block_dimension, dimension)
        full, rest = divmod(dimension, b)
        return (b,) * full + ((rest,) if rest else ())


def _substream(seed: int, *key: int) -> Generator:
    """Independent generator for one (replication, purpose, block) slot."""
    ss = SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return Generator(PCG64(ss))


def _joe_kuo(dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Primitive polynomials (dimension,) and initial direction numbers
    (dimension, max degree) of the leading `dimension` rows of the
    Joe-Kuo table.

    The packaged joe_kuo.npy is a C-order uint32 (MAX_DIMENSION, 19)
    array: row i is dimension i's polynomial, then its 18 initial
    direction numbers. Every call reads its header and then only the
    leading rows, so no call decodes or keeps the whole table; it is
    read rather than memory-mapped, because a mapping raised the best_of
    benchmark's peak RSS. A polynomial is stored with its leading and
    constant terms, so its degree s is its bit length minus one; row 0
    is the first dimension, whose direction numbers are all 1.
    """
    with open(_JOE_KUO_TABLE, "rb") as table:
        np.lib.format.read_magic(table)
        shape, _, dtype = np.lib.format.read_array_header_1_0(table)
        rows = np.fromfile(table, dtype, dimension * shape[1]).reshape(dimension, -1)
    rows = rows.astype(np.uint64)
    return rows[:, 0], rows[:, 1:]


@lru_cache(maxsize=8)
def _gray_code_table(dimension: int, count: int) -> np.ndarray:
    """Direction integers that span the first `count` stream points.

    The Sobol stream runs in Gray-code order (Antonov & Saleev): net
    point k is the XOR of the v_c over the set bits c of k XOR (k >> 1),
    and the stream skips the all-zero origin, net point 0, so stream
    point i is net point i + 1. Returns the (c_max+1, dimension) table
    of the v_c as 32-bit integers, c_max = floor(log2 count), cached
    read-only because every replication reuses it under different
    scrambles.

    Only the columns c <= c_max are built. A dimension whose polynomial
    x^s + a_1 x^(s-1) + ... + a_(s-1) x + 1 has degree s takes its first
    s odd integers m_c from the table, then
    m_c = m_(c-s) XOR XOR_(k=1..s) a_k 2^k m_(c-k), with a_s = 1,
    and v_c = m_c << (31 - c).
    """
    columns = int(count).bit_length()
    poly, vinit = _joe_kuo(dimension)
    poly = poly[1:]
    degree = np.frexp(poly.astype(np.float64))[1] - 1
    powers = np.arange(1, degree.max(initial=0) + 1)
    lag = degree[:, None] - powers
    # coeff[:, k-1] is a_k, 0 past the degree
    coeff = (poly[:, None] >> np.maximum(lag, 0).astype(np.uint64)) & _ONE
    coeff[lag < 0] = 0
    m = np.ones((dimension, columns), dtype=np.uint64)
    seeded = min(columns, vinit.shape[1])
    m[1:, :seeded] = vinit[1:, :seeded]
    tail = m[1:]
    for c in range(columns):
        rows = np.flatnonzero(degree <= c)
        new = tail[rows, c - degree[rows]]
        for k in powers[:c]:
            new ^= coeff[rows, k - 1] * (tail[rows, c - k] << np.uint64(k))
        tail[rows, c] = new
    directions = (m << (BITS - 1 - np.arange(columns, dtype=np.uint64))).T.copy()
    directions.setflags(write=False)
    return directions


@dataclass(frozen=True, eq=False)
class DigitalScramble:
    """Per-dimension affine digit scramble.

    Each dimension carries a random lower-triangular bit matrix with
    unit diagonal, stored column-wise as packed integers, plus a random
    digital shift. The unit diagonal makes every dyadic digit prefix a
    bijection, so elementary-interval structure survives scrambling.
    """

    columns: np.ndarray  # (dims, BITS) uint64, column j of the bit matrix
    shift: np.ndarray    # (dims,) uint64

    @classmethod
    def random(cls, dims: int, rng: Generator) -> "DigitalScramble":
        diagonal = _ONE << _DIGIT_SHIFTS
        # one draw in digit-major order, the order of a per-digit loop
        below = rng.integers(0, diagonal[:, None], size=(BITS, dims), dtype=np.uint64)
        columns = (diagonal[:, None] | below).T
        shift = rng.integers(0, 1 << BITS, size=dims, dtype=np.uint64)
        return cls(columns=columns, shift=shift)

    def apply(self, raw: np.ndarray) -> np.ndarray:
        """Scramble a (points, dims) block of raw Sobol integers."""
        if raw.ndim != 2 or raw.shape[1] != self.columns.shape[0]:
            raise ValueError("raw block shape does not match scramble dimensions")
        bits = (raw[..., None] >> _DIGIT_SHIFTS) & _ONE
        return np.bitwise_xor.reduce(bits * self.columns, axis=2) ^ self.shift


def _output(out: np.ndarray | None, shape: tuple[int, ...], name: str = "out",
            dtypes: tuple[type, ...] = (np.float64,)) -> np.ndarray:
    """`out` after checking that it can take a result of `shape` in place
    in one of `dtypes`, or a new float64 array when it is None; a refusal
    names it `name`."""
    if out is None:
        return np.empty(shape)
    if not (isinstance(out, np.ndarray) and out.shape == shape
            and out.dtype in dtypes and out.flags.c_contiguous):
        kinds = " or ".join(np.dtype(dtype).name for dtype in dtypes)
        raise ValueError(f"{name} must be a C-contiguous {kinds} array of shape {shape}")
    return out


def _polynomial(coefficients: tuple[float, ...], x: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """The polynomial with `coefficients`, constant term first, at `x` by
    Horner's rule, written into `out` when given (it must not be `x`)."""
    out = np.multiply(x, coefficients[-1], out=out)
    for c in coefficients[-2:0:-1]:
        out += c
        out *= x
    out += coefficients[0]
    return out


def _tail_quantiles(p: np.ndarray, dtype: type) -> np.ndarray:
    """AS241's quantiles, in `dtype`, of float64 probabilities with
    |p - 1/2| > 0.425, from r = sqrt(-log(min(p, 1 - p))): one rational
    up to r = 5 and another beyond it, so far out that only clipped
    uniforms reach it. min(p, 1 - p) is taken in float64 and then
    rounded, so a float32 tail keeps its full relative precision. `p`
    is spent: it ends holding p - 1/2."""
    r = np.subtract(1.0, p)   # exact above one half
    r = np.minimum(p, r, out=r).astype(dtype, copy=False)
    np.sqrt(np.negative(np.log(r, out=r), out=r), out=r)
    far = np.flatnonzero(r > 5.0)
    beyond = r[far] - 5.0
    r -= 1.6
    x = _polynomial(_TAIL_NEAR[0], r)
    x /= _polynomial(_TAIL_NEAR[1], r)
    if far.size:
        x[far] = _polynomial(_TAIL_FAR[0], beyond) / _polynomial(_TAIL_FAR[1], beyond)
    return np.copysign(x, np.subtract(p, 0.5, out=p), out=x)


def _inverse_normal(p: np.ndarray, out: np.ndarray) -> None:
    """Write the standard normal quantiles of the 1-D float64
    probabilities `p`, all inside (0, 1), into the 1-D `out`, float64 or
    float32, one chunk at a time; `out` may be `p` itself or a float32
    view of its leading bytes.

    Every element of a chunk takes the central rational of
    q = p - 1/2 in r = 0.180625 - q**2, in out's precision, with the
    numerator written into out's chunk; q is taken in float64 and then
    rounded. The tails, |q| > 0.425 and about 15% of uniform points, are
    gathered before that and scattered back after it. A chunk reads all
    of its p before it writes, and a float32 chunk [s, e) overlays
    p[s/2:e/2], so no write reaches an unread probability. On tail
    points the central denominator stays above 0.002, so their discarded
    central values are finite and raise no floating-point warning.
    """
    chunk = max(1, min(_CHUNK, p.size // 4))
    q = np.empty(chunk, out.dtype)
    r = np.empty(chunk, out.dtype)
    for start in range(0, p.size, chunk):
        pc, zc = p[start:start + chunk], out[start:start + chunk]
        qc, rc = q[:pc.size], r[:pc.size]
        np.subtract(pc, 0.5, out=qc)
        tail = np.flatnonzero(np.abs(qc, out=rc) > 0.425)
        outer = _tail_quantiles(pc[tail], out.dtype)
        np.subtract(0.180625, np.multiply(qc, qc, out=rc), out=rc)
        _polynomial(_CENTRAL[0], rc, out=zc)
        zc *= qc
        zc /= _polynomial(_CENTRAL[1], rc, out=qc)
        zc[tail] = outer


def to_normal(unit: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse standard normal CDF, defined on the open unit interval,
    evaluated in the precision of `out`: a C-contiguous float64 or
    float32 array of unit's shape, else a new float64 one. `out` may be
    `unit` itself, or a float32 view of its leading bytes, as
    `replication_normals` passes; either way the uniforms become the
    normals."""
    unit = np.asarray(unit, dtype=np.float64)
    if unit.size and not (unit.min() > 0.0 and unit.max() < 1.0):
        raise ValueError("unit point coordinates must lie strictly inside (0, 1)")
    out = _output(out, unit.shape, dtypes=(np.float64, np.float32))
    _inverse_normal(unit.reshape(-1), out.reshape(-1))
    return out


def _draw_shape(config: QmcConfig, dimension: int) -> tuple[int, int]:
    """(points, dimension) of one replication's draws in either mode;
    `block_sizes` refuses a dimension below 1."""
    config.block_sizes(dimension)
    return config.points_per_replication, dimension


def lss_assemble(config: QmcConfig, replication: int, dimension: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Uniform points for one replication of the scrambled Sobol plan,
    written into `out` when given.

    Every block reuses the same Sobol net, scrambled with a substream
    keyed by (replication, block); each block's run order is permuted
    independently so that block couplings are randomized rather than
    inherited from the generator.

    The scramble x -> Mx XOR shift is affine over GF(2) and the Gray
    code reflects, so a block's scrambled net of n + 1 points starts at
    the scrambled origin, the shift, and rows 2^c ... 2^(c+1) - 1 are
    M v_c XOR rows 2^c - 1 ... 0: only the few directions of a block
    are scrambled, not its points. Rows 1 ... n are the stream points,
    and their map k -> k / 2**BITS is exact and below 1 - 2**-53, so
    only a 0 needs lifting into the open unit interval.
    """
    shape = _draw_shape(config, dimension)
    n = shape[0]
    widths = config.block_sizes(dimension)
    directions = _gray_code_table(widths[0], n)
    out = _output(out, shape)
    start = 0
    for block, width in enumerate(widths):
        rng = _substream(config.seed, replication, _TAG_SCRAMBLE, block)
        scramble = DigitalScramble.random(width, rng)
        linear = (scramble.apply(directions[:, :width]) ^ scramble.shift).astype(np.uint32)
        net = np.empty((n + 1, width), dtype=np.uint32)
        net[0] = scramble.shift
        for c, direction in enumerate(linear):
            half = 1 << c
            size = min(half, n + 1 - half)
            np.bitwise_xor(net[half - size:half][::-1], direction,
                           out=net[half:half + size])
        order = _substream(config.seed, replication, _TAG_ORDER, block).permutation(n)
        np.multiply(net[1:][order], 2.0 ** -BITS, out=out[:, start:start + width])
        start += width
    return np.maximum(out, UNIT_LOW, out=out)


def replication_uniforms(config: QmcConfig, replication: int, dimension: int,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Uniform (points, dimension) draws for one replication, written
    into `out` when given."""
    if config.mode == "pseudo_random":
        u = _substream(config.seed, replication, _TAG_PSEUDO).random(
            out=_output(out, _draw_shape(config, dimension)))
        return np.clip(u, UNIT_LOW, UNIT_HIGH, out=u)
    return lss_assemble(config, replication, dimension, out=out)


def replication_normals(config: QmcConfig, replication: int, dimension: int,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal (points, dimension) draws for one replication, in
    float32.

    The uniforms are drawn in float64 into `out` when it is given, a
    C-contiguous float64 (points, dimension) array, else into a new one,
    and become float32 normals in the leading half of its bytes: the
    result is a C-contiguous view of `out`, whose trailing half is left
    holding spent uniforms.
    """
    unit = replication_uniforms(config, replication, dimension, out=out)
    leading = unit.reshape(-1).view(np.float32)[:unit.size].reshape(unit.shape)
    return to_normal(unit, out=leading)
