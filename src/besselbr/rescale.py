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
    "pair_maxima",
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
    return _split_rescaled(b1, _brownian(ts, rng, (count, m)), consts.b, ts)


def _split_rescaled(b1, bstar, c, ts):
    # (|b1 + bstar/sqrt(c)|^2 - c - ts) / 2 for b1 (rows, m) at time 1 and
    # bstar (rows, m, times) in the local clock, as X + R(t) - t/2 + delta(t);
    # b1 may hold only the first columns, the rest of B(1) being 0
    x = (np.einsum("ij,ij->i", b1, b1) - c) / 2.0
    if not ts[-1] > 0.0:  # bstar is 0 at t = 0, and c may then be any real
        return x[:, None] - ts / 2.0
    r = np.einsum("ij,ijk->ik", b1, bstar[:, : b1.shape[1]]) / math.sqrt(c)
    delta = np.einsum("ijk,ijk->ik", bstar, bstar) / (2.0 * c)
    return x[:, None] + r - ts / 2.0 + delta


def local_scalar_batch(ts, n, m: int, key: StreamKey, count: int) -> np.ndarray:
    """``count`` i.i.d. copies of the rescaled scalar-product process at ``ts``.

    :func:`scalar_product_batch` at the physical times 1 + t/(2b), centred:
    value(t) = gamma(1 + t/(2b)) - b (1 + t/(2b)).
    """
    consts = scalar_constants(n, m)
    phys = 1.0 + _checked_times(ts) / (2.0 * consts.b)
    return scalar_product_batch(phys, m, key, count) - consts.b * phys


PAIR_EPSILON = 1e-3  # bound on the expected number of discarded copies that could move a row
_FIRST_BLOCK = 8  # copies per active row in pair_maxima's first lockstep block; then doubling


def pair_maxima(process: str, ts, n, m: int, key: StreamKey, count: int):
    """``count`` rows of the maximum over n rescaled copies at the clock times ``ts``.

    The law is that of ``local_bessel_batch`` / ``local_scalar_batch`` rows
    maximised over n copies, but only the copies that can reach the maximum
    are simulated, so the cost does not grow with n.  Each copy is ordered
    by one chi-square(m) variable Q: Q = |B(1)|^2 for "bessel", and
    Q = |U(1)|^2 with U = (B + B~)/sqrt(2) for "scalar", where D = (B - B~)/sqrt(2)
    is independent of U and <B, B~> = (|U|^2 - |D|^2)/2.  With c = b (bessel)
    or 2b (scalar) and W, W~ standard Brownian motions in the local clock, a
    copy at level Q is, by rotation invariance,

        Y(t) = (|sqrt(Q) e_1 + W(t)/sqrt(c)|^2 - c - t)/2          (bessel)
        Y(t) = the same  -  |g + W~(t)/sqrt(c)|^2 / 2,  g ~ N(0, I_m)  (scalar)

    evaluated with the arithmetic of ``local_bessel_split_batch``; the
    subtracted D term is |D(1 + t/c)|^2 / 2.  The
    levels are the top order statistics of n chi-square(m) draws, exact in
    log space: log F(Q_{k+1}) = log F(Q_k) + log(U)/(n - k), then
    Q = 2 gammainccinv(m/2, 1 - F(Q)), which is -2 log(1 - F(Q)) at m = 2.

    Stopping: in both families Y(t) <= ((sqrt(Q) + |W(t)|/sqrt(c))^2 - c - t)/2,
    since the scalar family's D term only lowers Y, so with M_t the running
    maximum at time t, a copy at level Q can exceed it only if
    |W(t)| > rho_t = sqrt(c) (sqrt(2 M_t + c + t) - sqrt(Q)); at t = 0 it
    cannot once rho_0 > 0.  Its risk is therefore at most p = sum over
    positive t of P(chi2_m > rho_t^2 / t).  The later copies sit at lower
    levels, and for them the gaps grow: with rho the smallest rho_t over
    positive t, eta = (1 - (m-2)^+/rho^2)/2 a lower bound of the
    chi-square(m) hazard beyond rho^2, the chi(m) density bound
    f(z) <= z V (1 + (2-m)^+/Q) e^{(z_k - z) z_k} and the n - k later
    levels i.i.d. below Q_k, the expected number of all discarded copies
    that could change the row is at most

        p (1 + (n - k) V z (1 + (2-m)^+/Q) / ((1 - V)(2 eta rho sqrt(c) - z))),

    with z = sqrt(Q) and V = P(chi2_m > Q) at the first discarded copy k.
    A row stops at the first copy where this bound is at most
    ``PAIR_EPSILON`` = 1e-3, so each discarded copy has risk at most p <= 1e-3,
    and the risk summed over a row's discarded copies is at most 1e-3.  A
    row this affects moves an empirical CDF by at most 1/count, so the
    expected shift is at most 1e-3.  Copies never go past k = n.  At the
    single time 0 the clock is not read, so b may have any sign, the column
    is the normalised marginal maximum, and the stop is exact: later copies
    lie below (Q - c)/2, so a row stops at its first Q < 2 M_0 + c.

    Copies run in decreasing level, in lockstep blocks over the rows still
    active (8 copies per row, then doubling), all drawn from the one stream
    at ``key``; the rest of a block after a row's stop is drawn and dropped.
    Returns ``(maxima, copies)``: the ``(count, len(ts))`` maxima and, per
    row, the number of copies that entered them, which is n where the stop
    never fires.
    """
    if process not in ("bessel", "scalar"):
        raise ValueError(f"process must be bessel or scalar, got {process!r}")
    ts = _checked_times(ts, end=1.0)
    n = int(n)
    b = (bessel_constants if process == "bessel" else scalar_constants)(n, m).b
    clocked = ts[-1] > 0.0  # only a positive time reads the local clock 1 + t/c
    if clocked and not b > 0.0:
        raise ValueError(f"the local clock needs a positive centering constant, got b = {b}")
    c = b if process == "bessel" else 2.0 * b
    rng = key.generator()

    best = np.full((count, ts.size), -np.inf)
    copies = np.zeros(count, dtype=np.int64)
    log_cdf = np.zeros(count)
    active = np.arange(count)
    done, block = 0, _FIRST_BLOCK
    while active.size and done < n:
        rows, take = active.size, min(block, n - done)
        k = np.arange(done, done + take)
        steps = np.log1p(-rng.random((rows, take))) / (n - k)
        ell = log_cdf[active, None] + np.cumsum(steps, axis=1)
        surv = -np.expm1(ell)
        level = _chi2_level(m, surv)
        b1 = np.sqrt(level).reshape(-1, 1)  # sqrt(Q) e_1
        values = _split_rescaled(b1, _brownian(ts, rng, (rows * take, m)), c, ts)
        if process == "scalar":
            d = rng.standard_normal((rows * take, m, 1))
            if clocked:
                d = d + _brownian(ts, rng, (rows * take, m)) / math.sqrt(c)
            values -= np.einsum("ijk,ijk->ik", d, d) / 2.0
        run = np.concatenate((best[active, None], values.reshape(rows, take, ts.size)), axis=1)
        np.maximum.accumulate(run, axis=1, out=run)
        stop = _discard_risk(level, surv, run[:, :-1], n - k - 1, c, m, ts) <= PAIR_EPSILON
        first = np.where(stop.any(axis=1), stop.argmax(axis=1), take)
        best[active] = run[np.arange(rows), first]
        copies[active] = done + first
        log_cdf[active] = ell[:, -1]
        active = active[first == take]
        done += take
        block *= 2
    return best, copies


def _discard_risk(q, surv, running, rest, c, m, ts):
    # pair_maxima's bound on the expected number of copies from this one on
    # that could exceed a ``running`` maximum; inf where it does not apply
    positive = ts > 0.0
    if not positive.any():  # exact at t = 0 alone, see pair_maxima
        return np.where(np.all(q[..., None] < 2.0 * running + c, axis=-1), 0.0, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.sqrt(q)
        rho_t = math.sqrt(c) * (np.sqrt(2.0 * running + c + ts) - z[..., None])
        p = _chi2_tail(m, rho_t[..., positive] ** 2 / (2.0 * ts[positive])).sum(axis=-1)
        rho = rho_t[..., positive].min(axis=-1)
        eta = (1.0 - max(m - 2, 0) / rho**2) / 2.0
        spread = 2.0 * eta * rho * math.sqrt(c) - z
        tail = rest * surv * z * (1.0 + max(2 - m, 0) / q) / ((1.0 - surv) * spread)
        bound = p * (1.0 + tail)
    return np.where(np.all(rho_t > 0.0, axis=-1) & (eta > 0.0) & (spread > 0.0), bound, np.inf)


def _chi2_level(m, surv):
    # the chi-square(m) level with upper tail ``surv``; exponential at m = 2
    if m != 2:
        return 2.0 * sc.gammainccinv(m / 2.0, surv)
    with np.errstate(divide="ignore"):  # surv = 0 gives inf, as gammainccinv does
        return -2.0 * np.log(surv)


def _chi2_tail(m, x):
    # P(chi2_m > 2x) = gammaincc(m/2, x), which is exp(-x) at m = 2
    return np.exp(-x) if m == 2 else sc.gammaincc(m / 2.0, x)
