#!/usr/bin/env python3
"""The limit object: Brown-Resnick paths and their finite-dimensional laws.

The process is the pointwise maximum over a Poisson cloud of drifted Brownian
paths.  Only finitely many cloud points can matter on a compact window; the
simulator stops adding points once the remaining ones can change any grid
value with probability below a configured budget.  One-dimensional margins
are standard Gumbel, two-dimensional margins are Husler-Reiss with
lambda = sqrt(|t - s|)/2.
"""

import numpy as np

from besselbr import (
    BRTruncationSpec,
    StreamKey,
    extremal_coefficient,
    gumbel_cdf,
    hr_bivariate_cdf,
    hr_lambda,
    make_dyadic_grid,
    sample_br,
    sample_br_batch,
    time_index,
)
from besselbr.stats import ks_statistic

grid = make_dyadic_grid(7)
key = StreamKey(99)

path = sample_br(grid, BRTruncationSpec(epsilon=1e-4), key)
print("one path:", f"min {path.values.min():+.3f}, max {path.values.max():+.3f},",
      f"value at 0 {path.values[0]:+.3f}, value at 1 {path.values[-1]:+.3f}")

tighter = sample_br(grid, BRTruncationSpec(epsilon=1e-8, max_points=40000), key)
print("same key, epsilon 1e-4 -> 1e-8: max grid change",
      f"{np.max(np.abs(tighter.values - path.values)):.2e}",
      "(extra points rarely matter)")

print()
print("marginal law check, 3000 replicates at t = 1:")
batch = sample_br_batch(grid, BRTruncationSpec(epsilon=1e-4), key.with_substream(5), 3000)
ks = ks_statistic(batch[:, -1], gumbel_cdf)
print(f"  KS distance to Gumbel: {ks:.4f}  (1% critical at N=3000: {1.63/np.sqrt(3000):.4f})")

print()
print("dependence of the pair (M(s), M(t)):")
for s, t in ((0.0, 0.1), (0.0, 0.5), (0.0, 1.0)):
    lam = hr_lambda(s, t)
    theta = extremal_coefficient(lam)
    print(f"  |t-s| = {t-s:.1f}: lambda = {lam:.4f}, extremal coefficient {theta:.4f}")

print()
print("empirical joint CDF vs the Husler-Reiss model at (s, t) = (0, 1):")
pairs = batch[:, [time_index(grid, 0.0), time_index(grid, 1.0)]]
lam = hr_lambda(0.0, 1.0)
for x, y in ((-1.0, 0.0), (0.0, 0.0), (1.0, 1.0)):
    empirical = float(np.mean((pairs[:, 0] <= x) & (pairs[:, 1] <= y)))
    model = hr_bivariate_cdf(x, y, lam)
    print(f"  F({x:+.0f}, {y:+.0f}): empirical {empirical:.4f}, model {model:.4f}")

print()
print("max-stability: max of two independent paths minus ln 2 is Gumbel again:")
other = sample_br_batch(grid, BRTruncationSpec(epsilon=1e-4), key.with_substream(6), 3000)
combined = np.maximum(batch[:, -1], other[:, -1]) - np.log(2.0)
print(f"  KS distance to Gumbel: {ks_statistic(combined, gumbel_cdf):.4f}")
