"""Empirical-distribution machinery for the desk-scale convergence checks.

The limit theorems verified here are one of two shapes: a fixed-time maximum,
affinely normalised, converges to the standard Gumbel law; and the pair of
rescaled maxima at two times converges to the Husler-Reiss law.  Both shapes
reduce to Kolmogorov-Smirnov style distances between empirical and model
distribution functions.

Gumbel sweeps from exact laws: at a fixed time the maximum of n base
marginals has the law F_n(s) = (1 - P(xi > a s + b))^n.  For chi-square
marginals, the m = 2 product sum (standard Laplace) and the normal baseline
that tail is a closed form, so the sweep reports the exact Kolmogorov
distance sup_s |F_n(s) - exp(-e^{-s})| and samples nothing.  The product sum
for m != 2 has no closed-form tail; there the sweep takes the KS statistic of
the time-0 column of ``rescale.pair_maxima``, the sampler under test, drawn
with the same key for every n.  Consecutive entries are then coupled, so the
reported decrease reflects the shrinking bias rather than independent
sampling noise.
"""

import time

import numpy as np
from scipy import optimize
from scipy import special as sc

from .brown_resnick import gumbel_cdf, hr_bivariate_cdf, hr_lambda, sample_br_exact
from .numerics import StreamKey, parallel_map
from .paths import _check_dimension, _checked_times
from .rescale import bessel_constants, normal_constants, pair_maxima, scalar_constants

__all__ = [
    "ks_statistic",
    "two_sample_ks",
    "bivariate_cdf_diff",
    "marginal_gumbel_sweep",
    "fdd_check",
]

# replicates per canonical chunk of pair maxima; fixed so reports do not depend on the thread count
PAIR_CHUNK = 500

_FDD_LEVELS = (-1.0, 0.0, 1.0)

_PROCESSES = ("bessel", "scalar", "bm")


def _sorted_sample(values) -> np.ndarray:
    xs = np.sort(np.asarray(values, dtype=float).ravel())
    if xs.size == 0:
        raise ValueError("a KS statistic needs a nonempty sample")
    if not np.all(np.isfinite(xs)):
        raise ValueError("sample values must be finite")
    return xs


def ks_statistic(values, cdf) -> float:
    """sup-norm distance between the empirical CDF of ``values`` and ``cdf``.

    ``values`` is any array-like of finite reals.  ``cdf`` is called once, on
    the sorted sample array, and must return an array of the same shape.
    Both one-sided gaps at every jump point are taken, so the value is the
    exact Kolmogorov-Smirnov statistic.
    """
    xs = _sorted_sample(values)
    n = xs.size
    f = cdf(xs)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def two_sample_ks(a, b) -> float:
    """sup-norm distance between the empirical CDFs of two array-likes."""
    xs, ys = _sorted_sample(a), _sorted_sample(b)
    support = np.concatenate([xs, ys])
    fa = np.searchsorted(xs, support, side="right") / xs.size
    fb = np.searchsorted(ys, support, side="right") / ys.size
    return float(np.max(np.abs(fa - fb)))


def bivariate_cdf_diff(pairs, model, grid) -> float:
    """max over ``grid`` of |empirical joint CDF of ``pairs`` - model(x, y)|.

    ``grid`` is a sequence of (x, y) points.  ``model`` is called once, on
    the arrays of grid abscissae and ordinates, and must return an array of
    their shape.
    """
    pts = np.asarray(pairs, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("pairs must be a nonempty (N, 2) array")
    grid = np.asarray(list(grid), dtype=float).reshape(-1, 2)
    if not grid.size:
        raise ValueError("evaluation grid must be nonempty")
    gx, gy = grid.T
    empirical = np.mean((pts[:, 0] <= gx[:, None]) & (pts[:, 1] <= gy[:, None]), axis=1)
    return float(np.max(np.abs(empirical - model(gx, gy))))


# Gumbel quantiles exp(-e^{-s}) from about 3e-18 to 1 - 1e-16: outside them
# |F_n - Lambda| exceeds its value at the nearer end by less than that
_GUMBEL_GRID = np.linspace(-3.7, 36.9, 407)


def _exact_gumbel_distance(process, m, n) -> float:
    # sup_s |F_n(s) - Lambda(s)|: the best point of a fixed grid, refined
    # between its two neighbours
    if process == "bessel":
        consts = bessel_constants(n, m)
        tail = lambda x: sc.gammaincc(0.5 * m, np.maximum(x, 0.0) / 2.0)
    elif process == "scalar":  # m = 2: the product sum is standard Laplace
        consts = scalar_constants(n, m)
        tail = lambda x: np.where(x < 0.0, 1.0 - 0.5 * np.exp(x), 0.5 * np.exp(-x))
    else:
        consts = normal_constants(n)
        tail = lambda x: sc.ndtr(-x)

    def gap(s):
        with np.errstate(divide="ignore"):  # a tail of 1 gives F_n = 0
            fn = np.exp(n * np.log1p(-tail(consts.a * s + consts.b)))
        return np.abs(fn - gumbel_cdf(s))

    values = gap(_GUMBEL_GRID)
    best = int(np.argmax(values))
    bounds = _GUMBEL_GRID[max(best - 1, 0)], _GUMBEL_GRID[min(best + 1, _GUMBEL_GRID.size - 1)]
    refined = optimize.minimize_scalar(
        lambda s: -gap(s), bounds=bounds, method="bounded", options={"xatol": 1e-10}
    )
    return float(max(values[best], -refined.fun))


def marginal_gumbel_sweep(
    process: str,
    m: int,
    ns,
    replicates: int,
    key: StreamKey,
    *,
    threads: int = 1,
) -> list:
    """Kolmogorov distance to the Gumbel law of the normalised maximum, one per n in ``ns``.

    ``process`` selects the base marginal at time 1: "bessel" (chi-square(m)),
    "scalar" (the m-term product sum) or "bm" (N(0, 1) with the classical
    normal norming constants, as a sanity baseline).  For bessel, bm and
    scalar m = 2 each value is the exact distance, and ``replicates``,
    ``key`` and ``threads`` are unused.  For scalar m != 2 it is the KS
    statistic of ``replicates`` sampled maxima, as the module docstring
    describes: fixed key, fixed output, for every thread count.
    """
    if process not in _PROCESSES:
        raise ValueError(f"process must be one of {_PROCESSES}, got {process!r}")
    _check_dimension(m)
    ns = [int(n) for n in ns]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 2:
        raise ValueError("ns must be strictly increasing sample counts >= 2")
    if replicates < 1:
        raise ValueError("replicates must be positive")
    if process != "scalar" or m == 2:
        return [_exact_gumbel_distance(process, m, n) for n in ns]
    # a = 1, and pair_maxima at the single time 0 gives max - b
    maxima = (_local_pair_maxima("scalar", m, [0.0], n, key, replicates, threads)[0] for n in ns)
    return [ks_statistic(sample, gumbel_cdf) for sample in maxima]


def _local_pair_maxima(process, m, ts, n, key, replicates, threads):
    n_chunks = -(-replicates // PAIR_CHUNK)

    def worker(c):
        lo = c * PAIR_CHUNK
        count = min(replicates, lo + PAIR_CHUNK) - lo
        return pair_maxima(process, ts, n, m, key.with_replicate(c), count)

    pairs, copies = zip(*parallel_map(worker, n_chunks, threads))
    return np.concatenate(pairs), np.concatenate(copies)


def fdd_check(
    process: str,
    m: int,
    times,
    n,
    replicates: int,
    key: StreamKey,
    *,
    threads: int = 1,
    diagnostics: dict | None = None,
    timings: dict | None = None,
) -> float:
    """Two-time finite-dimensional check against the Husler-Reiss law.

    Simulates ``replicates`` copies of (max over n rescaled processes at s,
    same at t) and returns the max over the grid {-1, 0, 1}^2 of the absolute
    difference between the empirical joint CDF and the Husler-Reiss CDF with
    parameter sqrt(|t-s|)/2.  For "bessel" and "scalar" the maxima come from
    ``rescale.pair_maxima``, which simulates only the copies that can reach
    them, so the cost does not grow with ``n``.  ``process`` may also be "br",
    in which case the pair comes from the limit process itself, drawn
    exactly by ``sample_br_exact`` at the two times (``m``, ``n`` and
    ``threads`` are ignored: that sampler draws every row from the one stream
    at ``key`` on one thread), and the check exercises the simulator rather
    than a prelimit family.  A ``diagnostics`` dict, when passed, receives
    one pure function of the key: ``copies_per_replicate``, the mean number
    of copies simulated per maximum, or for "br"
    ``br_spectral_functions_per_path``, the mean number of spectral functions
    simulated per path, whose expectation is 2.  A ``timings`` dict, when passed, receives the
    wall-clock spans ``sample`` and ``statistic`` in milliseconds.
    """
    s, t = times
    ts = _checked_times(sorted((s, t)), end=1.0)
    if replicates < 1:
        raise ValueError("replicates must be positive")

    started = time.perf_counter()
    if process == "br":
        pairs, spectral = sample_br_exact(ts, key, replicates)
        found = {"br_spectral_functions_per_path": float(spectral.mean())}
    elif process in ("bessel", "scalar"):
        _check_dimension(m)
        if not n >= 2:
            raise ValueError(f"sample count n must be at least 2, got {n}")
        pairs, copies = _local_pair_maxima(process, m, ts, int(n), key, replicates, threads)
        found = {"copies_per_replicate": float(copies.mean())}
    else:
        raise ValueError(f"process must be bessel, scalar or br, got {process!r}")
    if s > t:
        pairs = pairs[:, ::-1]
    if diagnostics is not None:
        diagnostics.update(found)

    sampled = time.perf_counter()
    lam = hr_lambda(s, t)
    grid = [(x, y) for x in _FDD_LEVELS for y in _FDD_LEVELS]
    diff = bivariate_cdf_diff(pairs, lambda x, y: hr_bivariate_cdf(x, y, lam), grid)
    if timings is not None:
        timings["sample"] = 1000.0 * (sampled - started)
        timings["statistic"] = 1000.0 * (time.perf_counter() - sampled)
    return diff
