#!/usr/bin/env python3
"""Norming constants and the exact tail identities behind them.

The running maximum of n independent chi-square(m) variables, normalised as
(M_n - b_n)/a_n, converges to the standard Gumbel law; the same holds for the
m-term sums of products of standard normal pairs with their own constants.
This script prints the constants, shows the Poisson-intensity identity that
calibrates them (exact for m = 2, asymptotic otherwise), and checks that the
generic Weibull-type recipe reproduces both families.
"""

import math

from besselbr import (
    bessel_constants,
    chi_square_tail,
    chi_square_tail_params,
    generic_constants,
    laplace_tail_fn,
    check_gumbel_intensity,
    chi_square_tail_fn,
    scalar_constants,
    scalar_product_tail_params,
)

print("Norming constants (a, b) at a few sample counts")
print(f"{'n':>10} {'bessel m=2':>24} {'bessel m=4':>24} {'scalar m=2':>24}")
for n in (10**2, 10**4, 10**6):
    b2 = bessel_constants(n, 2)
    b4 = bessel_constants(n, 4)
    s2 = scalar_constants(n, 2)
    print(
        f"{n:>10} {f'({b2.a:g}, {b2.b:.5f})':>24}"
        f" {f'({b4.a:g}, {b4.b:.5f})':>24} {f'({s2.a:g}, {s2.b:.5f})':>24}"
    )

print()
print("Exact intensity identity at m = 2: n * P(chi2_2 > 2s + b_n) vs exp(-s)")
for s in (-1.0, 0.0, 2.0):
    values = check_gumbel_intensity(
        chi_square_tail_fn(2), lambda n: bessel_constants(n, 2), s, [10, 10**4]
    )
    print(f"  s = {s:+.1f}: {values}  target {math.exp(-s):.12f}")

print()
print("Same identity for the Laplace law (scalar family, m = 2):")
values = check_gumbel_intensity(
    laplace_tail_fn(), lambda n: scalar_constants(n, 2), 1.0, [10, 10**4]
)
print(f"  s = +1.0: {values}  target {math.exp(-1.0):.12f}")

print()
print("Intensity convergence when the identity is only asymptotic (chi-square m = 3, s = 0):")
values = check_gumbel_intensity(
    chi_square_tail_fn(3), lambda n: bessel_constants(n, 3), 0.0, [10**3, 10**4, 10**5, 10**6]
)
for n, v in zip((10**3, 10**4, 10**5, 10**6), values):
    print(f"  n = {n:>8}: {v:.6f}  (error {abs(v - 1):.4f})")

print()
print("Generic constants from the two tail parameterisations:")
for m in (1, 2, 3, 4, 5, 6):
    K, c, beta = chi_square_tail_params(m)
    gap_b = abs(generic_constants(K, c, beta, 10**4).b - bessel_constants(10**4, m).b)
    K, c, beta = scalar_product_tail_params(m)
    gap_s = abs(generic_constants(K, c, beta, 10**4).b - scalar_constants(10**4, m).b)
    print(f"  m = {m}: |generic - bessel| = {gap_b:.2e},  |generic - scalar| = {gap_s:.2e}")

print()
print("Exact vs leading-order chi-square tails deep in the tail:")
from besselbr import chi_square_tail_asymptotic

for m, x in ((2, 10.0), (4, 40.0), (6, 60.0)):
    exact = chi_square_tail(m, x)
    asym = chi_square_tail_asymptotic(m, x)
    print(f"  m = {m}, x = {x:>5}: exact {exact:.6e}, asymptotic {asym:.6e}, ratio {exact/asym:.4f}")
