#!/usr/bin/env python3
"""Desk-scale verification of the convergence statements.

Two experiments: the fixed-time maxima of both process families, affinely
normalised, drift toward the Gumbel law as the sample count grows; and the
two-time maxima of the locally rescaled processes match the Husler-Reiss law
of the limit process.  Sweeps sample the maxima through the exact inverse
distribution of the maximum with common uniforms, so the KS trajectory
reflects the shrinking bias rather than independent noise.
"""

from besselbr import StreamKey, fdd_check, marginal_gumbel_sweep

key = StreamKey(20260401)

print("KS distance to Gumbel across sample counts (2000 replicates):")
for sub, (process, m) in enumerate((("bessel", 2), ("bessel", 3), ("scalar", 2), ("bm", 1))):
    sweep = marginal_gumbel_sweep(process, m, [100, 1000, 10000], 2000, key.with_substream(sub))
    path = " -> ".join(f"{v:.4f}" for v in sweep.values)
    print(f"  {process:>6} m={m}: {path}   decreasing: {sweep.decreasing}")

print()
print("note: for m = 2 both families are exactly exponential-tailed, the bias is")
print("O(1/n) and already far below the replicate noise at n = 100; the m = 3")
print("chi-square family converges at the logarithmic rate and the decrease is")
print("visible.")

print()
print("two-time check against Husler-Reiss(lambda = 1/2) at (s, t) = (0, 1):")
for process in ("bessel", "scalar"):
    diff = fdd_check(process, 2, (0.0, 1.0), 5000, 1000, key.with_substream(11))
    print(f"  {process:>6} m=2, n=5000, 1000 replicates: sup CDF diff {diff:.4f}")

diff = fdd_check("br", 2, (0.0, 1.0), 0, 2000, key.with_substream(12))
print(f"  limit process itself, 2000 replicates:      sup CDF diff {diff:.4f}")
