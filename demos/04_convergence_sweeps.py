#!/usr/bin/env python3
"""Desk-scale verification of the convergence statements.

Two experiments: the fixed-time maxima of both process families, affinely
normalised, drift toward the Gumbel law as the sample count grows; and the
two-time maxima of the locally rescaled processes match the Husler-Reiss law
of the limit process.  Where the base marginal has a closed-form tail
(chi-square, the m = 2 product sum, the normal baseline) the sweep reports
the exact distance of the maximum's law to Gumbel; the product sum for
m != 2 is sampled with one key for every n, so its KS trajectory reflects the
shrinking bias rather than independent noise.
"""

from besselbr import StreamKey, fdd_check, marginal_gumbel_sweep

key = StreamKey(20260401)

print("Kolmogorov distance to Gumbel at n = 100, 1000, 10000:")
sweeps = (("bessel", 2), ("bessel", 3), ("scalar", 2), ("scalar", 3), ("bm", 1))
for sub, (process, m) in enumerate(sweeps):
    values = marginal_gumbel_sweep(process, m, [100, 1000, 10000], 2000, key.with_substream(sub))
    path = " -> ".join(f"{v:.3g}" for v in values)
    how = "2000 sampled maxima" if (process, m) == ("scalar", 3) else "exact"
    print(f"  {process:>6} m={m}: {path}   ({how})")

print()
print("note: for m = 2 both families are exactly exponential-tailed and the")
print("distance falls like 0.27/n; for m = 3 both converge at the logarithmic")
print("rate.")

print()
print("two-time check against Husler-Reiss(lambda = 1/2) at (s, t) = (0, 1):")
for process in ("bessel", "scalar"):
    diff = fdd_check(process, 2, (0.0, 1.0), 5000, 1000, key.with_substream(11))
    print(f"  {process:>6} m=2, n=5000, 1000 replicates: sup CDF diff {diff:.4f}")

diff = fdd_check("br", 2, (0.0, 1.0), 0, 2000, key.with_substream(12))
print(f"  limit process itself, 2000 replicates:      sup CDF diff {diff:.4f}")
