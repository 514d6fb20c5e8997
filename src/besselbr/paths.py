"""Exact-increment simulation of Brownian paths and the processes built from them.

One kernel, :func:`_brownian`, places exact Gaussian increments between
consecutive times, so the joint law at those times carries no discretisation
bias.  The squared Bessel and scalar-product batches are assembled from its
Brownian coordinates by their defining sums, and every sampler draws all
coordinates of all rows from the single stream at its key, in C order.  A
leading time 0 takes no draw: B(0) = 0 is known, so its column is set to 0.
"""

import numpy as np

from .numerics import StreamKey

__all__ = [
    "TimeGrid",
    "SamplePath",
    "make_dyadic_grid",
    "squared_bessel_batch",
    "scalar_product_batch",
]

MAX_DYADIC_EXPONENT = 24


class TimeGrid:
    """Strictly increasing evaluation times spanning [0, 1]."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.array(points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a time grid needs at least two points")
        if pts[0] != 0.0:
            raise ValueError("time grids start at 0")
        if pts[-1] != 1.0:
            raise ValueError("time grids end at 1")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        pts.flags.writeable = False
        self.points = pts

    def __len__(self):
        return self.points.size

    def __repr__(self):
        return f"TimeGrid({self.points.size} points on [0, 1])"

    def index_of(self, t) -> int:
        """Position of time ``t``; raises if ``t`` is not exactly a grid point."""
        idx = int(np.searchsorted(self.points, t))
        if idx == self.points.size or self.points[idx] != t:
            raise ValueError(f"{t} is not a grid point")
        return idx


class SamplePath:
    """One real value per point of a :class:`TimeGrid`."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: TimeGrid, values):
        vals = np.array(values, dtype=float)
        if vals.shape != grid.points.shape:
            raise ValueError("path length must match its grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must be finite")
        vals.flags.writeable = False
        self.grid = grid
        self.values = vals

    def __repr__(self):
        return f"SamplePath({self.grid!r})"


def make_dyadic_grid(k: int) -> TimeGrid:
    """Uniform grid of 2**k + 1 points on [0, 1]."""
    if k < 0:
        raise ValueError("dyadic exponent must be nonnegative")
    if k > MAX_DYADIC_EXPONENT:
        raise ValueError(
            f"dyadic exponent {k} exceeds the supported maximum {MAX_DYADIC_EXPONENT}"
        )
    return TimeGrid(np.linspace(0.0, 1.0, 2**k + 1))


def _checked_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if np.any(times < 0) or not np.all(np.diff(times) > 0):
        raise ValueError("times must be nonnegative and strictly increasing")
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
    z = rng.standard_normal((*shape, times.size - start))
    z *= np.sqrt(np.diff(times[start:], prepend=0.0))
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
