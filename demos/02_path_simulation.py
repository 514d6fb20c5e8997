#!/usr/bin/env python3
"""Exact-increment simulation of the squared Bessel and scalar-product processes.

Both are built from Brownian coordinates with exact N(0, dt) increments on
the grid: the squared Bessel process of dimension m is the sum of squares of
m independent coordinates, and the scalar-product process pairs two
independent m-dimensional motions coordinatewise.  Each batch sampler returns
one path per row, drawn from the single stream at its StreamKey, so every
path shown here can be regenerated bit-for-bit.
"""

import numpy as np

from besselbr import (
    StreamKey,
    make_dyadic_grid,
    scalar_product_batch,
    squared_bessel_batch,
    time_index,
)

grid = make_dyadic_grid(6)
key = StreamKey(20260810)

print(f"grid: {len(grid)} points, spacing {grid[1] - grid[0]}")

bessel = squared_bessel_batch(grid, 3, key.with_replicate(1), 1)[0]
scalar = scalar_product_batch(grid, 3, key.with_replicate(2), 1)[0]

print()
print("one path of each process at t in {0, 0.25, 0.5, 0.75, 1}:")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    i = time_index(grid, t)
    print(f"  t={t:4}: squared-bessel {bessel[i]:8.4f}   scalar-product {scalar[i]:+8.4f}")

again = squared_bessel_batch(grid, 3, key.with_replicate(1), 1)[0]
print()
print("reproducibility: same key gives identical bytes:", again.tobytes() == bessel.tobytes())

print()
print("Monte Carlo sanity at t = 1 (5000 rows each):")
reps = 5000
terminal_bessel = squared_bessel_batch([1.0], 3, key.with_replicate(3), reps)[:, 0]
terminal_scalar = scalar_product_batch([1.0], 2, key.with_replicate(4), reps)[:, 0]
print(f"  squared-bessel m=3: mean {terminal_bessel.mean():.3f} (chi2_3 mean 3),"
      f" var {terminal_bessel.var():.3f} (chi2_3 var 6)")
print(f"  scalar-product m=2: mean {terminal_scalar.mean():+.4f} (0),"
      f" var {terminal_scalar.var():.3f} (2)")

print()
print("pointwise maximum of 5 squared Bessel paths never goes below any of them:")
rows = squared_bessel_batch(grid, 3, key.with_replicate(100), 5)
envelope = rows.max(axis=0)
print("  min over grid of (envelope - path):", float(np.min(envelope - rows)))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(8, 3.2), sharex=True)
    for ax, path, title in zip(
        axes, (bessel, scalar), ("squared Bessel (m=3)", "scalar product (m=3)")
    ):
        ax.plot(grid, path, lw=1.2)
        ax.set_title(title)
        ax.set_xlabel("t")
    axes[0].plot(grid, envelope, lw=1.2, ls="--", label="max of 5 paths")
    axes[0].legend()
    fig.tight_layout()
    fig.savefig("paths_demo.png", dpi=120)
    print()
    print("wrote paths_demo.png")
except ImportError:
    pass
