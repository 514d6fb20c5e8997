"""Exact-increment simulation of Brownian paths and the processes built from them.

One kernel, :func:`_brownian`, places exact Gaussian increments between
consecutive times, so the joint law at those times carries no discretisation
bias.  The squared Bessel and scalar-product batches are assembled from its
Brownian coordinates by their defining sums, and every sampler draws all
coordinates of all rows from the single stream at its key, in C order.  A
leading time 0 takes no draw: B(0) = 0 is known, so its column is set to 0.

Times are plain float arrays.  :func:`make_dyadic_grid` gives the uniform
grids the commands use, :func:`time_index` finds a time's column, and
``_checked_times`` is the one check every sampler applies to its times.
"""

import numpy as np

from .numerics import StreamKey

__all__ = [
    "SamplePath",
    "make_dyadic_grid",
    "time_index",
    "squared_bessel_batch",
    "scalar_product_batch",
]

MAX_DYADIC_EXPONENT = 24


class SamplePath:
    """One real value per time of ``times``."""

    __slots__ = ("times", "values")

    def __init__(self, times, values):
        vals = np.array(values, dtype=float)
        if vals.shape != np.shape(times):
            raise ValueError("path length must match its times")
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must be finite")
        vals.flags.writeable = False
        self.times = times
        self.values = vals

    def __repr__(self):
        return f"SamplePath({len(self.times)} times)"


def make_dyadic_grid(k: int) -> np.ndarray:
    """Read-only uniform grid of 2**k + 1 times on [0, 1]."""
    if k < 0:
        raise ValueError("dyadic exponent must be nonnegative")
    if k > MAX_DYADIC_EXPONENT:
        raise ValueError(
            f"dyadic exponent {k} exceeds the supported maximum {MAX_DYADIC_EXPONENT}"
        )
    grid = np.linspace(0.0, 1.0, 2**k + 1)
    grid.flags.writeable = False
    return grid


def time_index(times, t) -> int:
    """Position of ``t`` in the increasing ``times``; raises if ``t`` is not one of them."""
    idx = int(np.searchsorted(times, t))
    if idx == len(times) or times[idx] != t:
        raise ValueError(f"{t} is not a grid point")
    return idx


def _checked_times(times, end=np.inf) -> np.ndarray:
    """``times`` as a float array: nonempty, 1-d, strictly increasing, in [0, ``end``]."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if not (times[0] >= 0.0 and (times[1:] > times[:-1]).all()):
        raise ValueError("times must be nonnegative and strictly increasing")
    if not times[-1] <= end:
        raise ValueError(f"times must lie in [0, {end:g}]")
    return times


def _brownian(times: np.ndarray, rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Independent Brownian motions of ``shape`` at ``times``, from B(0) = 0.

    ``times`` need not begin at 0; the first increment covers (0, times[0]].
    Returns shape ``(*shape, len(times))``: the normals of ``rng`` in C order,
    scaled to exact increments and summed.  A leading time 0 draws no normal:
    its column is exactly 0, and the rest equals ``_brownian(times[1:], ...)``
    from the same ``rng``.
    """
    start = int(times[0] == 0.0)
    # increments from B(0) = 0: np.diff(..., prepend=0.0) bytes at a quarter of its cost
    steps = times[start:].copy()
    steps[1:] -= times[start:-1]
    z = rng.standard_normal((*shape, steps.size))
    z *= np.sqrt(steps)
    out = np.zeros((*shape, times.size))
    np.cumsum(z, axis=-1, out=out[..., start:])
    return out


def _check_dimension(m):
    if m < 1 or int(m) != m:
        raise ValueError(f"dimension m must be a positive integer, got {m}")


def squared_bessel_batch(times, m: int, key: StreamKey, count: int) -> np.ndarray:
    """``count`` i.i.d. squared Bessel processes of dimension ``m``, shape (count, len(times)).

    Row i is the sum of squares of m Brownian coordinates, all drawn from the
    single stream at ``key`` in C order over (row, coordinate, time).
    """
    _check_dimension(m)
    bm = _brownian(_checked_times(times), key.generator(), (count, m))
    return np.einsum("ijk,ijk->ik", bm, bm)


def scalar_product_batch(times, m: int, key: StreamKey, count: int) -> np.ndarray:
    """``count`` i.i.d. scalar products of two m-dimensional motions, shape (count, len(times)).

    The single stream at ``key`` gives the first motion of every row, then
    the second, each in C order over (row, coordinate, time).
    """
    _check_dimension(m)
    bm, bm_tilde = _brownian(_checked_times(times), key.generator(), (2, count, m))
    return np.einsum("ijk,ijk->ik", bm, bm_tilde)
