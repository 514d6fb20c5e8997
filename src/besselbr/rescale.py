"""Norming constants and locally rescaled processes.

The running maximum of n independent squared Bessel (chi-square) or Brownian
scalar-product processes converges, after an affine space normalisation and a
shrinking time window around t = 1, to the Brown-Resnick process.  This
module owns the normalising constants of those limit theorems and the samplers
for the rescaled processes.

Every centering constant b here is calibrated so that

    n * P(base marginal at time 1 > a*s + b)  ->  exp(-s)

which is the Poisson intensity required by the limit.  For dimension m = 2
the identity is exact for every n, not just asymptotically, for both process
families; the test suite pins this down to machine precision.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .numerics import StreamKey
from .paths import _brownian, _check_dimension, _checked_times
from .paths import scalar_product_batch, squared_bessel_batch

__all__ = [
    "NormingConstants",
    "bessel_constants",
    "scalar_constants",
    "generic_constants",
    "normal_constants",
    "local_bessel_batch",
    "local_bessel_split_batch",
    "local_scalar_batch",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class NormingConstants:
    """Affine normalisation (a, b) for the maximum of n samples."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("scale constant a must be positive")


def _check_count(n):
    # n may be any real >= 2 (tests exercise non-integer counts like e^2);
    # below 2 the iterated logarithm is undefined or complex.
    if not n >= 2:
        raise ValueError(f"sample count n must be at least 2, got {n}")
    return float(n)


def bessel_constants(n, m: int) -> NormingConstants:
    """Norming constants for maxima of chi-square(m) marginals.

    a = 2 and b = 2 ln n + (m - 2) ln ln n - 2 ln Gamma(m/2), matching the
    tail P(chi2_m > x) ~ x^{m/2-1} e^{-x/2} / (2^{m/2-1} Gamma(m/2)).
    For m = 2 this gives n * P(chi2_2 > 2s + b) = exp(-s) exactly.
    """
    n = _check_count(n)
    _check_dimension(m)
    b = 2.0 * math.log(n) + (m - 2.0) * math.log(math.log(n)) - 2.0 * sc.gammaln(m / 2.0)
    return NormingConstants(2.0, float(b))


def scalar_constants(n, m: int) -> NormingConstants:
    """Norming constants for maxima of m-term sums of products of N(0,1) pairs.

    a = 1 and b = ln n + (m/2 - 1) ln ln n - (m/2) ln 2 - ln Gamma(m/2),
    matching the signed-sum tail
    P(sum X_j Y_j > x) ~ x^{m/2-1} e^{-x} / (2^{m/2} Gamma(m/2)).
    For m = 2 the sum is standard Laplace and
    n * P(sum > s + b) = exp(-s) holds exactly.
    """
    n = _check_count(n)
    _check_dimension(m)
    b = (
        math.log(n)
        + (m / 2.0 - 1.0) * math.log(math.log(n))
        - (m / 2.0) * _LN2
        - sc.gammaln(m / 2.0)
    )
    return NormingConstants(1.0, float(b))


def generic_constants(K, c, beta, n) -> NormingConstants:
    """Norming constants for a tail of the form K u^beta e^{-c u}.

    a = 1/c and b = (ln n + beta ln(ln n / c) + ln K) / c.
    """
    if not K > 0:
        raise ValueError(f"tail coefficient K must be positive, got {K}")
    if not c > 0:
        raise ValueError(f"tail rate c must be positive, got {c}")
    n = _check_count(n)
    b = (math.log(n) + beta * math.log(math.log(n) / c) + math.log(K)) / c
    return NormingConstants(1.0 / c, b)


def normal_constants(n) -> NormingConstants:
    """Classical Gumbel norming for maxima of n standard normals.

    a = 1/s and b = s - (ln ln n + ln 4 pi) / (2 s) with s = sqrt(2 ln n).
    """
    n = _check_count(n)
    s = math.sqrt(2.0 * math.log(n))
    b = s - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * s)
    return NormingConstants(1.0 / s, b)


def local_bessel_batch(ts, n, m: int, key: StreamKey, count: int) -> np.ndarray:
    """``count`` i.i.d. copies of the rescaled chi-square process at clock times ``ts``.

    :func:`squared_bessel_batch` at the physical times 1 + t/b, centred and
    scaled: value(t) = (xi(1 + t/b) - b (1 + t/b)) / 2.
    """
    consts = bessel_constants(n, m)
    phys = 1.0 + _checked_times(ts) / consts.b
    return (squared_bessel_batch(phys, m, key, count) - consts.b * phys) / 2.0


def local_bessel_split_batch(ts, n, m: int, key: StreamKey, count: int) -> np.ndarray:
    """Same law as :func:`local_bessel_batch`, built from independent pieces.

    Writing each Brownian coordinate at time 1 + t/b as B(1) + B*(t)/sqrt(b)
    with B* a fresh Brownian motion in the local clock, the rescaled process
    decomposes exactly into

        X + R(t) - t/2 + delta(t),
        X     = (sum_j B_j(1)^2 - b) / 2,
        R(t)  = sum_j B_j(1) B*_j(t) / sqrt(b),
        delta = sum_j B*_j(t)^2 / (2 b).

    This sampler draws the pieces independently from the stream at ``key``:
    first all B(1), then all B*.  It must agree in law with the direct
    sampler, which the test suite checks by two-sample statistics.
    """
    consts = bessel_constants(n, m)
    ts = _checked_times(ts)
    rng = key.generator()
    b1 = rng.standard_normal((count, m))
    bstar = _brownian(ts, rng, (count, m))
    x = (np.einsum("ij,ij->i", b1, b1) - consts.b) / 2.0
    r = np.einsum("ij,ijk->ik", b1, bstar) / math.sqrt(consts.b)
    delta = np.einsum("ijk,ijk->ik", bstar, bstar) / (2.0 * consts.b)
    return x[:, None] + r - ts / 2.0 + delta


def local_scalar_batch(ts, n, m: int, key: StreamKey, count: int) -> np.ndarray:
    """``count`` i.i.d. copies of the rescaled scalar-product process at ``ts``.

    :func:`scalar_product_batch` at the physical times 1 + t/(2b), centred:
    value(t) = gamma(1 + t/(2b)) - b (1 + t/(2b)).
    """
    consts = scalar_constants(n, m)
    phys = 1.0 + _checked_times(ts) / (2.0 * consts.b)
    return scalar_product_batch(phys, m, key, count) - consts.b * phys
