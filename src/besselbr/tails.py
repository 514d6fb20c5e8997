"""Closed-form tail asymptotics, quadrature oracles, and tail-condition verifiers.

Two families of exact/asymptotic tails live here: the chi-square family (sums
of squared standard normals) and the product family (sums of products of
independent standard normal pairs).  The general Weibull-type product-tail
formula covers the tail of X1*X2 when both factors have tails of the form
C x^alpha exp(-L x^p); the Laplace-approximation constants it carries are
checked against brute-force quadrature oracles rather than trusted.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as sc

from .numerics import DEFAULT_QUADRATURE, QuadratureSpec, integrate
from .paths import _check_dimension

__all__ = [
    "TailParams",
    "chi_square_density",
    "chi_square_tail",
    "chi_square_tail_asymptotic",
    "scalar_product_tail_asymptotic",
    "chi_square_tail_params",
    "scalar_product_tail_params",
    "chi_square_tail_fn",
    "laplace_tail_fn",
    "weibull_product_tail",
    "weibull_product_density",
    "product_tail_oracle",
    "check_gumbel_intensity",
    "check_condition_kk",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class TailParams:
    """Per-factor constants of the Weibull-type tails C_i x^alpha_i exp(-L_i x^p_i)."""

    C1: float
    L1: float
    p1: float
    alpha1: float
    C2: float
    L2: float
    p2: float
    alpha2: float

    def __post_init__(self):
        for name in ("C1", "L1", "p1", "C2", "L2", "p2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def swapped(self) -> "TailParams":
        """Roles of the two factors exchanged."""
        return TailParams(
            C1=self.C2, L1=self.L2, p1=self.p2, alpha1=self.alpha2,
            C2=self.C1, L2=self.L1, p2=self.p1, alpha2=self.alpha1,
        )


def chi_square_density(m: int, x) -> float:
    """Density of the chi-square law with m degrees of freedom at x > 0."""
    _check_dimension(m)
    if not x > 0:
        raise ValueError(f"chi_square_density requires x > 0, got {x}")
    half = 0.5 * m
    return math.exp((half - 1.0) * math.log(x) - 0.5 * x - half * _LN2 - sc.gammaln(half))


def chi_square_tail(m: int, x) -> float:
    """Exact chi-square survival P(chi2_m > x) = Q(m/2, x/2) for x >= 0."""
    _check_dimension(m)
    if not x >= 0:
        raise ValueError(f"chi_square_tail requires x >= 0, got {x}")
    return float(sc.gammaincc(m / 2.0, x / 2.0))


def chi_square_tail_asymptotic(m: int, x) -> float:
    """Leading-order tail x^{m/2-1} e^{-x/2} / (2^{m/2-1} Gamma(m/2)).

    Not a probability for small x; equals the exact tail for m = 2.
    """
    _check_dimension(m)
    if not x > 0:
        raise ValueError(f"asymptotic tail requires x > 0, got {x}")
    half = 0.5 * m
    return math.exp((half - 1.0) * math.log(x) - 0.5 * x - (half - 1.0) * _LN2 - sc.gammaln(half))


def scalar_product_tail_asymptotic(m: int, x) -> float:
    """Leading-order tail of sum_{j<=m} X_j Y_j for independent N(0,1) factors:
    x^{m/2-1} e^{-x} / (2^{m/2} Gamma(m/2)).

    Equals the exact Laplace tail e^{-x}/2 for m = 2.
    """
    _check_dimension(m)
    if not x > 0:
        raise ValueError(f"asymptotic tail requires x > 0, got {x}")
    half = 0.5 * m
    return math.exp((half - 1.0) * math.log(x) - x - half * _LN2 - sc.gammaln(half))


def chi_square_tail_params(m: int) -> tuple[float, float, float]:
    """(K, c, beta) with P(chi2_m > u) ~ K u^beta e^{-c u}."""
    _check_dimension(m)
    half = 0.5 * m
    return math.exp(-(half - 1.0) * _LN2 - sc.gammaln(half)), 0.5, half - 1.0


def scalar_product_tail_params(m: int) -> tuple[float, float, float]:
    """(K, c, beta) with P(sum X_j Y_j > u) ~ K u^beta e^{-c u}."""
    _check_dimension(m)
    half = 0.5 * m
    return math.exp(-half * _LN2 - sc.gammaln(half)), 1.0, half - 1.0


def chi_square_tail_fn(m: int) -> Callable[[float], float]:
    """Exact chi-square survival function for the condition verifiers."""
    _check_dimension(m)
    return lambda x: chi_square_tail(m, max(x, 0.0))


def laplace_tail_fn() -> Callable[[float], float]:
    """Exact standard Laplace survival function (the m = 2 product-sum law)."""

    def survival(x):
        if x >= 0:
            return 0.5 * math.exp(-x)
        return 1.0 - 0.5 * math.exp(x)

    return survival


def weibull_product_tail(params: TailParams, x) -> float:
    """Laplace-approximation tail of X1*X2 for Weibull-type factors.

    With A = [(p1 L1) / (p2 L2)]^{1/(p1+p2)} the value is

        sqrt(2 pi p2 L2 / (p1+p2)) * C1 C2 * A^{p2/2 + alpha2 - alpha1}
        * x^{(2 p2 alpha1 + 2 p1 alpha2 + p1 p2) / (2 (p1+p2))}
        * exp(-(L1 A^{-p1} + L2 A^{p2}) x^{p1 p2 / (p1+p2)}).

    Symmetric in the two factors even though the expression is not visibly so.
    """
    if not x > 0:
        raise ValueError(f"weibull_product_tail requires x > 0, got {x}")
    C1, L1, p1, a1 = params.C1, params.L1, params.p1, params.alpha1
    C2, L2, p2, a2 = params.C2, params.L2, params.p2, params.alpha2
    psum = p1 + p2
    A = ((p1 * L1) / (p2 * L2)) ** (1.0 / psum)
    prefactor = math.sqrt(2.0 * math.pi * p2 * L2 / psum) * C1 * C2 * A ** (p2 / 2.0 + a2 - a1)
    power = x ** ((2.0 * p2 * a1 + 2.0 * p1 * a2 + p1 * p2) / (2.0 * psum))
    decay = math.exp(-(L1 * A ** (-p1) + L2 * A**p2) * x ** (p1 * p2 / psum))
    return prefactor * power * decay


def weibull_product_density(params: TailParams, x) -> float:
    """Density asymptotic of X1*X2:
    h(x) ~ L1 p1 A^{-p1} x^{p1 p2/(p1+p2) - 1} P(X1 X2 > x)."""
    if not x > 0:
        raise ValueError(f"weibull_product_density requires x > 0, got {x}")
    p1, p2 = params.p1, params.p2
    psum = p1 + p2
    A = ((p1 * params.L1) / (p2 * params.L2)) ** (1.0 / psum)
    return (
        params.L1
        * p1
        * A ** (-p1)
        * x ** (p1 * p2 / psum - 1.0)
        * weibull_product_tail(params, x)
    )


def product_tail_oracle(m: int, x, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Brute-force P(sum_{j<=m} X_j Y_j > x) by certified quadrature.

    The sum is distributed as X * sqrt(S) with X standard normal and S an
    independent chi-square(m), so the tail equals

        integral_0^inf  Phibar(x / sqrt(s)) * chi2_m-density(s) ds.

    The integrand peaks near s = x (the saddle of x^2/(2s) + s/2), so the
    integral is split there to keep the adaptive rule from missing the bump.
    """
    _check_dimension(m)
    if not x > 0:
        raise ValueError(f"product_tail_oracle requires x > 0, got {x}")

    def integrand(s):
        return sc.ndtr(-x / math.sqrt(s)) * chi_square_density(m, s)

    return integrate(integrand, 0.0, x, spec) + integrate(integrand, x, np.inf, spec)


def check_gumbel_intensity(survival, constants, s, ns) -> list[float]:
    """The sequence n * P(Y > a_n s + b_n) for each n in ``ns``, P given by ``survival``.

    ``constants`` maps a sample count n to an object with attributes ``a`` and
    ``b``, e.g. ``lambda n: bessel_constants(n, m)``.  The sequence converges
    to exp(-s) when (a_n, b_n) are the Gumbel norming constants of the tail;
    callers assert the convergence (it is exact for the m = 2 laws of both
    process families).
    """
    out = []
    for n in ns:
        c = constants(n)
        out.append(float(n) * float(survival(c.a * s + c.b)))
    return out


def check_condition_kk(
    tail_density: Callable[[float], float],
    constants: Callable,
    r,
    p,
    ns,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[float]:
    """Gaussian-damped lower-tail mass of the normalised maxima triangular array.

    For X_n = (Y - b_n)/a_n this evaluates, for each n,

        n * integral_{-b_n/(2 a_n)}^{-r} exp(-x^2 / p) dP(X_n <= x)

    by the substitution y = a_n x + b_n back to the Y scale, with (a_n, b_n)
    the ``a`` and ``b`` of ``constants(n)``.  The underlying
    negligibility condition asks only that the sequence stays bounded; the
    verifier reports the raw numbers and leaves thresholds to the caller.
    """
    if not r > 0:
        raise ValueError(f"window edge r must be positive, got {r}")
    if not p > 0:
        raise ValueError(f"damping constant p must be positive, got {p}")
    out = []
    for n in ns:
        c = constants(n)
        y_lo = c.b / 2.0
        y_hi = c.b - c.a * r
        if y_hi <= y_lo:
            out.append(0.0)
            continue

        def integrand(y, _c=c):
            u = (y - _c.b) / _c.a
            return math.exp(-u * u / p) * tail_density(y)

        out.append(float(n) * integrate(integrand, y_lo, y_hi, spec))
    return out
