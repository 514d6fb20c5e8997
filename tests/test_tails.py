import functools
import math

import numpy as np
import pytest

from besselbr.numerics import QuadratureSpec, integrate
from besselbr.rescale import bessel_constants, generic_constants, scalar_constants
from besselbr.tails import (
    TailParams,
    check_condition_kk,
    check_gumbel_intensity,
    chi_square_density,
    chi_square_tail,
    chi_square_tail_asymptotic,
    chi_square_tail_fn,
    chi_square_tail_params,
    laplace_tail_fn,
    product_tail_oracle,
    scalar_product_tail_asymptotic,
    weibull_product_density,
    weibull_product_tail,
)

ORACLE_QUAD = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=200)

SYMMETRIC_EXPONENTIAL = TailParams(C1=1, L1=1, p1=1, alpha1=0, C2=1, L2=1, p2=1, alpha2=0)


def exponential_product_tail(x, spec=ORACLE_QUAD):
    # exact P(X1 X2 > x) for independent unit exponentials (equals 2 sqrt(x) K_1(2 sqrt(x)))
    return integrate(lambda y: math.exp(-y - x / y), 0.0, np.inf, spec)


class TestTailParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            TailParams(C1=0, L1=1, p1=1, alpha1=0, C2=1, L2=1, p2=1, alpha2=0)
        with pytest.raises(ValueError):
            TailParams(C1=1, L1=1, p1=-1, alpha1=0, C2=1, L2=1, p2=1, alpha2=0)

    def test_swapped(self):
        params = TailParams(C1=1, L1=2, p1=3, alpha1=4, C2=5, L2=6, p2=7, alpha2=8)
        back = params.swapped().swapped()
        assert back == params


class TestChiSquareTail:
    def test_m2_is_exponential(self):
        for x in (0.0, 0.5, 2.0, 11.0, 50.0):
            assert chi_square_tail(2, x) == pytest.approx(math.exp(-x / 2), abs=1e-13)

    def test_m2_half_argument_is_unit_exponential(self):
        # Q(1, x) = e^{-x}, reached through chi_square_tail(2, 2x)
        for x in (0.0, 0.3, 1.0, 5.0, 40.0):
            assert chi_square_tail(2, 2.0 * x) == pytest.approx(math.exp(-x), abs=1e-13)

    def test_point_value(self):
        assert chi_square_tail(2, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-13)

    def test_m3_point_value(self):
        # Q(3/2, x) = erfc(sqrt(x)) + 2 sqrt(x / pi) e^{-x}; at x = 1
        expected = math.erfc(1.0) + 2.0 * math.exp(-1.0) / math.sqrt(math.pi)
        assert chi_square_tail(3, 2.0) == pytest.approx(expected, abs=1e-13)

    def test_m1_is_erfc(self):
        # Q(1/2, x) = erfc(sqrt(x)); erfc is the independent reference here
        assert chi_square_tail(1, 8.0) == pytest.approx(math.erfc(2.0), abs=1e-13)

    def test_m1_against_quadrature(self):
        integral = integrate(
            lambda t: t**-0.5 * math.exp(-t), 4.0, np.inf, QuadratureSpec(1e-14, 1e-13, 200)
        )
        assert chi_square_tail(1, 8.0) == pytest.approx(integral / math.gamma(0.5), abs=1e-12)

    def test_monotone_decreasing_in_x(self):
        for m in (1, 2, 5, 14, 100):
            values = [chi_square_tail(m, x) for x in np.linspace(0.0, 120.0, 41)]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_even_degree_finite_sum(self):
        # for chi-square with m even the tail is a finite Poisson-type sum
        for m in (2, 4, 8, 12):
            for x in (0.5, 3.0, 17.0, 60.0):
                expected = math.exp(-x / 2) * sum(
                    (x / 2) ** j / math.factorial(j) for j in range(m // 2)
                )
                assert chi_square_tail(m, x) == pytest.approx(expected, abs=1e-12)

    def test_domain_errors(self):
        for bad in (-0.5, -math.inf, math.nan):
            with pytest.raises(ValueError):
                chi_square_tail(2, bad)
        with pytest.raises(ValueError):
            chi_square_tail(0, 1.0)

    def test_m4_deep_tail_ratio(self):
        # exact Q(2, 20) = 21 e^{-20} against the leading-order formula 20 e^{-20}
        exact = chi_square_tail(4, 40.0)
        asym = chi_square_tail_asymptotic(4, 40.0)
        assert exact == pytest.approx(21.0 * math.exp(-20.0), rel=1e-12)
        assert 0.9 <= exact / asym <= 1.1
        assert exact / asym == pytest.approx(1.05, abs=1e-10)


class TestAsymptoticTails:
    def test_scalar_m2_equals_exact_laplace(self):
        for x in (0.1, 1.0, 5.0, 30.0):
            assert scalar_product_tail_asymptotic(2, x) == pytest.approx(
                0.5 * math.exp(-x), rel=1e-14
            )

    def test_scalar_m1_value(self):
        expected = (2 * math.pi) ** -0.5 * 30.0**-0.5 * math.exp(-30.0)
        assert scalar_product_tail_asymptotic(1, 30.0) == pytest.approx(expected, rel=1e-13)

    def test_chi_m2_value(self):
        assert chi_square_tail_asymptotic(2, 10.0) == pytest.approx(math.exp(-5.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            scalar_product_tail_asymptotic(2, 0.0)


class TestWeibullProductTail:
    def test_symmetric_exponential_closed_form(self):
        for x in (4.0, 25.0, 100.0):
            expected = math.sqrt(math.pi) * x**0.25 * math.exp(-2.0 * math.sqrt(x))
            assert weibull_product_tail(SYMMETRIC_EXPONENTIAL, x) == pytest.approx(
                expected, rel=1e-13
            )

    def test_against_quadrature_oracle_at_100(self):
        ratio = weibull_product_tail(SYMMETRIC_EXPONENTIAL, 100.0) / exponential_product_tail(100.0)
        assert 0.97 <= ratio <= 1.03

    def test_swap_symmetry_identical_factors(self):
        assert weibull_product_tail(SYMMETRIC_EXPONENTIAL.swapped(), 50.0) == pytest.approx(
            weibull_product_tail(SYMMETRIC_EXPONENTIAL, 50.0), rel=1e-14
        )

    def test_swap_symmetry_distinct_factors(self):
        params = TailParams(C1=0.7, L1=1.3, p1=2.0, alpha1=-0.5, C2=2.0, L2=0.4, p2=1.0, alpha2=1.5)
        for x in (10.0, 200.0):
            assert weibull_product_tail(params.swapped(), x) == pytest.approx(
                weibull_product_tail(params, x), rel=1e-12
            )


class TestWeibullProductDensity:
    def test_symmetric_exponential_closed_form(self):
        x = 100.0
        expected = x**-0.5 * math.sqrt(math.pi) * x**0.25 * math.exp(-2.0 * math.sqrt(x))
        assert weibull_product_density(SYMMETRIC_EXPONENTIAL, x) == pytest.approx(expected, rel=1e-13)

    def test_against_finite_difference_oracle(self):
        h = 0.1
        fd = (exponential_product_tail(100.0 - h) - exponential_product_tail(100.0 + h)) / (2 * h)
        ratio = weibull_product_density(SYMMETRIC_EXPONENTIAL, 100.0) / fd
        assert 0.95 <= ratio <= 1.05

    def test_positive(self):
        for x in (0.01, 1.0, 10.0, 1000.0):
            assert weibull_product_density(SYMMETRIC_EXPONENTIAL, x) > 0.0


class TestProductTailOracle:
    def test_m2_hits_exact_laplace(self):
        for x in (1.0, 5.0, 10.0):
            assert product_tail_oracle(2, x, ORACLE_QUAD) == pytest.approx(
                0.5 * math.exp(-x), abs=1e-9
            )

    def test_small_x_limit_is_half(self):
        assert product_tail_oracle(1, 1e-8, ORACLE_QUAD) == pytest.approx(0.5, abs=1e-5)

    def test_monotone_decreasing(self):
        values = [product_tail_oracle(1, x, ORACLE_QUAD) for x in (1.0, 2.0, 5.0, 10.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_asymptotic_log_ratio_shrinks(self, m):
        def log_ratio(x):
            return abs(
                math.log(scalar_product_tail_asymptotic(m, x) / product_tail_oracle(m, x, ORACLE_QUAD))
            )

        # for m = 2 the two sides agree exactly and both values sit at the
        # quadrature noise floor, hence the tiny additive slack
        assert log_ratio(40.0) <= log_ratio(20.0) + 1e-10


class TestGumbelIntensity:
    def test_chi_square_m2_exact(self):
        consts = lambda n: bessel_constants(n, 2)
        for s in (-1.0, 0.0, 3.0):
            values = check_gumbel_intensity(chi_square_tail_fn(2), consts, s, [10, 10**3, 10**6])
            for v in values:
                assert v == pytest.approx(math.exp(-s), abs=1e-12)

    def test_chi_square_m3_errors_shrink(self):
        values = check_gumbel_intensity(
            chi_square_tail_fn(3),
            lambda n: bessel_constants(n, 3),
            0.0,
            [10**3, 10**4, 10**5, 10**6],
        )
        errors = [abs(v - 1.0) for v in values]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.09

    def test_laplace_with_scalar_constants_exact(self):
        values = check_gumbel_intensity(
            laplace_tail_fn(), lambda n: scalar_constants(n, 2), 1.0, [10, 10**3, 10**6]
        )
        for v in values:
            assert v == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_generic_constants_agree_with_bessel(self):
        generic = functools.partial(generic_constants, *chi_square_tail_params(2))
        for s in (-1.0, 0.0, 3.0):
            got = check_gumbel_intensity(chi_square_tail_fn(2), generic, s, [10, 10**3, 10**6])
            want = check_gumbel_intensity(
                chi_square_tail_fn(2), lambda n: bessel_constants(n, 2), s, [10, 10**3, 10**6]
            )
            assert got == pytest.approx(want, abs=1e-12)


class TestConditionKK:
    def test_chi_square_m2_bounded_at_p4(self):
        seq = check_condition_kk(
            lambda y: chi_square_density(2, y),
            lambda n: bessel_constants(n, 2),
            2.0,
            4.0,
            [10**3, 10**4, 10**5],
            ORACLE_QUAD,
        )
        assert all(v >= 0 for v in seq)
        assert max(seq) <= 2.0 * seq[0]

    def test_chi_square_m2_at_p8_converges_below_analytic_limit(self):
        # the integrand e^{-x^2/8 - x} peaks inside the widening window, so
        # the sequence grows past 2x its first element; it stays below the
        # n -> infinity limit  e^2 * 2 sqrt(2 pi) Phi(1) = 31.157...
        seq = check_condition_kk(
            lambda y: chi_square_density(2, y),
            lambda n: bessel_constants(n, 2),
            2.0,
            8.0,
            [10**3, 10**4, 10**5],
            ORACLE_QUAD,
        )
        limit = math.exp(2.0) * 2.0 * math.sqrt(2.0 * math.pi) * 0.8413447460685429
        assert seq[0] == pytest.approx(8.658776, abs=1e-5)
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert all(v < limit for v in seq)

    def test_degenerate_window_is_zero(self):
        seq = check_condition_kk(
            lambda y: chi_square_density(2, y),
            lambda n: bessel_constants(n, 2),
            10.0,
            4.0,
            [10**3],
            ORACLE_QUAD,
        )
        assert seq == [0.0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            check_condition_kk(
                lambda y: chi_square_density(2, y),
                lambda n: bessel_constants(n, 2),
                -1.0,
                4.0,
                [10],
            )

    def test_generic_constants_agree_with_bessel(self):
        generic = functools.partial(generic_constants, *chi_square_tail_params(2))
        args = (2.0, 4.0, [10**3, 10**4, 10**5], ORACLE_QUAD)
        got = check_condition_kk(lambda y: chi_square_density(2, y), generic, *args)
        want = check_condition_kk(
            lambda y: chi_square_density(2, y), lambda n: bessel_constants(n, 2), *args
        )
        assert got == pytest.approx(want, abs=1e-12)


class TestDensityTailRatio:
    def test_chi_square_ratio_approaches_half(self):
        # h(u)/tail(u) -> 1/2; exact at every u for m = 2, with shrinking
        # drift for m > 2
        for u in (20.0, 40.0, 80.0):
            assert chi_square_density(2, u) / chi_square_tail(2, u) == pytest.approx(
                0.5, abs=1e-12
            )
        drifts = [
            abs(chi_square_density(4, u) / chi_square_tail(4, u) - 0.5) for u in (20.0, 40.0, 80.0)
        ]
        assert all(b < a for a, b in zip(drifts, drifts[1:]))

    def test_scalar_product_ratio_approaches_one(self):
        # density via central differences of the quadrature oracle
        h = 0.05
        drifts = []
        for u in (20.0, 40.0, 80.0):
            tail = product_tail_oracle(3, u, ORACLE_QUAD)
            density = (
                product_tail_oracle(3, u - h, ORACLE_QUAD) - product_tail_oracle(3, u + h, ORACLE_QUAD)
            ) / (2 * h)
            drifts.append(abs(density / tail - 1.0))
        assert all(b < a for a, b in zip(drifts, drifts[1:]))
        assert drifts[-1] < 0.02
