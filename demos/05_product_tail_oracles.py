#!/usr/bin/env python3
"""Product tails: closed-form asymptotics against brute-force quadrature.

The tail of a product X1*X2 of Weibull-type factors has a closed
Laplace-approximation form; the sums of products of standard normal pairs
have gamma-type tails.  Neither formula is trusted here: both are compared
against certified adaptive quadrature of exact integral representations.
"""

import math

import numpy as np

from besselbr import (
    QuadratureSpec,
    TailParams,
    bessel_constants,
    check_condition_kk,
    chi_square_density,
    integrate,
    product_tail_oracle,
    scalar_product_tail_asymptotic,
    weibull_product_density,
    weibull_product_tail,
)

QUAD = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=200)

print("product of two unit exponentials, tail at x:")
params = TailParams(C1=1, L1=1, p1=1, alpha1=0, C2=1, L2=1, p2=1, alpha2=0)
for x in (10.0, 100.0, 400.0):
    formula = weibull_product_tail(params, x)
    oracle = integrate(lambda y: math.exp(-y - x / y), 0.0, np.inf, QUAD)
    print(f"  x = {x:>5}: formula {formula:.6e}, quadrature {oracle:.6e}, ratio {formula/oracle:.4f}")

print()
print("matching density asymptotic vs differentiated quadrature at x = 100:")
h = 0.1
fd = (
    integrate(lambda y: math.exp(-y - (100 - h) / y), 0.0, np.inf, QUAD)
    - integrate(lambda y: math.exp(-y - (100 + h) / y), 0.0, np.inf, QUAD)
) / (2 * h)
print(f"  formula {weibull_product_density(params, 100.0):.6e}, finite-difference {fd:.6e},"
      f" ratio {weibull_product_density(params, 100.0)/fd:.4f}")

print()
print("sums of products of standard normal pairs: leading-order tail vs oracle")
print(f"{'m':>3} {'x':>5} {'asymptotic':>14} {'oracle':>14} {'ratio':>8}")
for m in (1, 2, 3):
    for x in (10.0, 30.0):
        asym = scalar_product_tail_asymptotic(m, x)
        oracle = product_tail_oracle(m, x, QUAD)
        print(f"{m:>3} {x:>5} {asym:>14.6e} {oracle:>14.6e} {asym/oracle:>8.4f}")
print("(m = 2 is the standard Laplace law; the formula is exact there)")

print()
print("Gaussian-damped lower-tail sequence for chi-square(2), window (-b_n/4, -r]:")
for r, p in ((2.0, 4.0), (2.0, 8.0)):
    seq = check_condition_kk(
        lambda y: chi_square_density(2, y),
        lambda n: bessel_constants(n, 2),
        r,
        p,
        [10**3, 10**4, 10**5],
        QUAD,
    )
    ratios = ", ".join(f"{v/seq[0]:.3f}" for v in seq)
    print(f"  r={r:g}, p={p:g}: values {['%.3f' % v for v in seq]}, ratios to first [{ratios}]")
print("the sequence always converges to a finite limit; how fast it flattens")
print("depends on where the damped integrand peaks relative to the window.")
