"""Simulation of the Brown-Resnick process and its finite-dimensional laws.

The process is M(t) = max_k (X_k + B_k(t) - t/2) over the points {X_k} of a
Poisson process with intensity e^{-x} dx and independent standard Brownian
motions B_k.  Its one-dimensional margins are standard Gumbel and its
bivariate margins are Husler-Reiss with dependence parameter
lambda = sqrt(|t - s|) / 2.  Both samplers take a plain array of strictly
increasing times in [0, 1]: ``sample_br`` truncates the Poisson series under
an error budget, and ``sample_br_exact`` draws the exact law at the times,
every row from the one stream at its key.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .numerics import StreamKey, parallel_map
from .paths import SamplePath, _brownian, _checked_times

__all__ = [
    "BRTruncationSpec",
    "TruncationError",
    "gumbel_cdf",
    "sample_br",
    "sample_br_batch",
    "sample_br_exact",
    "hr_lambda",
    "hr_bivariate_cdf",
    "extremal_coefficient",
]

_LEVEL_BLOCK = 64  # exponentials drawn per refill of sample_br's level buffer
_FIRST_ROWS = 32  # Wiener rows sample_br draws before its running maximum has a floor
_MAX_ROWS = 128  # cap on the Wiener rows of any later block
BR_CHUNK = 100  # replicates per canonical chunk of sample_br_batch


@dataclass(frozen=True)
class BRTruncationSpec:
    """Error budget for truncating the Poisson point series."""

    epsilon: float = 1e-4
    max_points: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.max_points < 1:
            raise ValueError("max_points must be at least 1")


class TruncationError(RuntimeError):
    """Point budget exhausted before the truncation rule certified the path."""

    def __init__(self, message, partial: SamplePath):
        super().__init__(message)
        self.partial = partial


def gumbel_cdf(x):
    """Standard Gumbel distribution function exp(-exp(-x)), elementwise on arrays.

    A float in gives a float out; below -709 the inner exponential would
    overflow, and the value there is 0 either way.
    """
    x = np.maximum(np.asarray(x, dtype=float), -709.0)
    # not np.exp: numpy's SIMD exp differs in the last bit on 30,455 of 10^6 Gumbel draws
    out = np.fromiter((math.exp(-math.exp(-v)) for v in x.ravel().tolist()), float, x.size)
    return out.reshape(x.shape) if x.ndim else float(out[0])


def _first_stop(x, paths, c_eps):
    """First row i >= 1 of a block at which the stop fires, or ``x.size`` if none.

    Row 0 of ``paths`` already holds the running maximum, and the caller has
    ruled out a stop at row 0.  Row i stops when ``x[i] + c_eps`` lies below
    the grid minimum of the maximum of rows 0..i-1.  That predicate stays true
    once true, so bisection over exact prefix maxima finds its first index.
    """

    def stops(i):
        return x[i] + c_eps < paths[:i].max(axis=0).min()

    lo, hi = 1, x.size - 1
    if hi < lo or not stops(hi):
        return x.size
    while lo < hi:
        mid = (lo + hi) // 2
        if stops(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def sample_br(times, spec: BRTruncationSpec, key: StreamKey) -> SamplePath:
    """One Brown-Resnick path at ``times`` with truncation error budget ``spec.epsilon``.

    Poisson points are realised as X_k = -ln(G_k) with G_k the cumulative sums
    of unit-rate exponentials from the substream at ``key.substream_index``;
    the X_k are therefore strictly decreasing.  Brownian increments for all
    point paths come from substream ``key.substream_index + 1``, consumed in
    point order, so the whole path is a pure function of the key.  Each
    point's path is ``paths._brownian`` at ``times``, whose first increment
    covers (0, times[0]].

    Stopping rule: once the running pointwise maximum has minimum value m*
    over the times, a later point at level x < X_k can alter some value
    only if its drifted path satisfies sup_{[0,1]} (B(t) - t/2) > m* - x.
    By the reflection principle P(sup_{[0,1]} B(t) > c) <= 2 (1 - Phi(c)), and
    the drift only lowers the supremum, so generation stops at the first k
    with X_k + c_eps < m*, where c_eps = Phi^{-1}(1 - epsilon/2).  Each
    discarded point then had probability at most epsilon of mattering, and
    the levels of subsequent discarded points fall off geometrically fast.

    The levels never increase and the floor m* never decreases, so the stop
    predicate X_k + c_eps < m*_{k-1} stays true once it is true.  Levels are
    drawn ahead in blocks of 64 from their own stream.  Once a floor exists,
    the stop comes no later than the first level c_eps below the current
    floor, so a block draws Wiener rows only up to that level, and at most
    ``_MAX_ROWS`` (``_FIRST_ROWS`` before any floor exists).  Within a block
    the first stopping row is found by bisection over exact prefix maxima.
    Every point the path uses takes its draws from the same stream positions
    as in a point-by-point loop, so the path, the stop and the
    ``TruncationError`` partial are that loop's, byte for byte; only Wiener
    rows past the stop go undrawn.
    """
    arrivals = key.generator()
    wiener = key.with_substream(key.substream_index + 1).generator()
    c_eps = float(sc.ndtri(1.0 - spec.epsilon / 2.0))

    pts = _checked_times(times, end=1.0)
    drift = -pts / 2.0

    levels = np.empty(0)
    gamma = 0.0
    best = None
    done = 0
    while done < spec.max_points:
        end = min(done + (_FIRST_ROWS if best is None else _MAX_ROWS), spec.max_points)
        floor = -np.inf if best is None else best.min()
        # levels up to the block end, or until one past ``done`` would stop for sure
        while levels.size < end and not (levels.size > done and levels[-1] + c_eps < floor):
            expo = arrivals.standard_exponential(_LEVEL_BLOCK)
            gam = np.cumsum(np.concatenate(([gamma], expo)))[1:]
            gamma = gam[-1]
            # not np.log: numpy's SIMD log differs from math.log in the last bit
            levels = np.concatenate((levels, -np.array(list(map(math.log, gam.tolist())))))
        below = np.flatnonzero(levels[done:end] + c_eps < floor)
        if below.size:
            if below[0] == 0:
                return SamplePath(pts, best)
            end = done + int(below[0])
        x = levels[done:end]
        paths = _brownian(pts, wiener, (x.size,))
        paths += x[:, None] + drift
        if best is not None:
            paths[0] = np.maximum(best, paths[0])
        i = _first_stop(x, paths, c_eps)
        if i < x.size:
            return SamplePath(pts, paths[:i].max(axis=0))
        best = paths.max(axis=0)
        done = end
    raise TruncationError(
        f"stopping rule did not fire within {spec.max_points} points",
        SamplePath(pts, best),
    )


def sample_br_batch(
    times,
    spec: BRTruncationSpec,
    key: StreamKey,
    replicates: int,
    threads: int = 1,
) -> np.ndarray:
    """Matrix of ``replicates`` independent Brown-Resnick paths, one per row.

    Replicate r uses ``key.with_replicate(r)``; the pool runs fixed chunks of
    ``BR_CHUNK`` replicates, so the output is byte-stable under any thread
    count.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")

    def chunk(c):
        rows = range(c * BR_CHUNK, min(replicates, (c + 1) * BR_CHUNK))
        return np.vstack([sample_br(times, spec, key.with_replicate(r)).values for r in rows])

    return np.concatenate(parallel_map(chunk, -(-replicates // BR_CHUNK), threads))


def sample_br_exact(times, key: StreamKey, replicates: int):
    """Exact Brown-Resnick paths at ``times`` by the extremal-functions algorithm.

    Dombry, Engelke & Oesting, "Exact simulation of max-stable processes",
    Biometrika 2016, Algorithm 2.  For each grid index j in turn, the levels
    X = -ln(G) of a fresh unit-rate Poisson process are visited while
    X > M(t_j).  Each level proposes the spectral function seen from t_j,
    X + W(t) - W(t_j) - |t - t_j|/2 with W a standard Brownian motion, and the
    proposal is kept only if it lies strictly below M at t_0..t_{j-1}, where
    the functions that realise M there were already found; M then becomes
    the pointwise maximum.  ``times`` are strictly increasing points of
    [0, 1]; neither endpoint is needed.  The law at ``times`` is exact: no
    truncation budget is involved.

    Proposals are drawn lazily.  Run backward from t_j, W(t_j - s) - W(t_j)
    is again a Brownian motion in s (time reversal), and it is independent
    of the part W(t) - W(t_j) for t > t_j.  So a proposal first draws its
    backward increments to t_{j-1}, then the next 4, the next 16 and then
    the rest, and is dropped at the first block where it reaches M: the
    eager walk would drop it too, whatever its undrawn values.  Only a kept
    proposal draws its part after t_j, independent of the values it was
    kept on; before t_j it lies below M, so M changes only from t_j on.  The
    values the algorithm reads thus have the eager walk's joint law, and so
    do the paths.

    Returns ``(paths, spectral)``: the ``(replicates, len(times))`` matrix of
    paths and, per row, the number of spectral functions simulated, whose
    expectation is ``len(times)`` (ibid., Proposition 4).  All rows advance
    together in one array: each proposal round and each backward-walk block
    is one vectorised step over the rows still active, and each draw is one
    call on the one stream at ``key`` for those rows.  The output is a pure
    function of ``(times, key, replicates)``.  There is no thread pool: the
    rounds shrink to a few rows, where numpy's per-call cost holds the GIL,
    and a second thread made the sampler slower.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    pts = _checked_times(times, end=1.0)
    sq_steps = np.sqrt(np.diff(pts))
    rng = key.generator()

    best = np.full((replicates, pts.size), -np.inf)
    spectral = np.zeros(replicates, dtype=np.int64)
    for j, t in enumerate(pts):
        drift = -np.abs(pts - t) / 2.0
        gamma = np.zeros(replicates)
        active = np.arange(replicates)
        while active.size:
            gamma[active] += rng.standard_exponential(active.size)
            level = -np.log(gamma[active])
            above = level > best[active, j]
            active, level = active[above], level[above]
            spectral[active] += 1
            # backward from t_j: ``here`` is X + W(t_lo) - W(t_j) at the walk's front
            kept, here, lo = active, level, j
            for size in (1, 4, 16, j):
                if lo == 0 or not kept.size:
                    break
                hi, lo = lo, max(lo - size, 0)
                walk = np.cumsum(
                    rng.standard_normal((kept.size, hi - lo)) * sq_steps[lo:hi][::-1], axis=1
                )
                walk += here[:, None]
                below = np.all(walk[:, ::-1] + drift[lo:hi] < best[kept, lo:hi], axis=1)
                kept, level, here = kept[below], level[below], walk[below, -1]
            if kept.size:
                walk = np.zeros((kept.size, pts.size - j))
                np.cumsum(rng.standard_normal((kept.size, pts.size - 1 - j)) * sq_steps[j:],
                          axis=1, out=walk[:, 1:])
                walk += level[:, None] + drift[j:]
                best[kept, j:] = np.maximum(best[kept, j:], walk)
    return best, spectral


def hr_lambda(s, t) -> float:
    """Dependence parameter of the Brown-Resnick pair (M(s), M(t)):
    lambda = sqrt(|t - s|) / 2."""
    for u in (s, t):
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"times must lie in [0, 1], got {u}")
    return math.sqrt(abs(t - s)) / 2.0


def _check_lambda(lam):
    if math.isnan(lam) or lam < 0:
        raise ValueError(f"lambda must be nonnegative (or inf), got {lam}")


def hr_bivariate_cdf(x, y, lam: float):
    """Husler-Reiss bivariate distribution function with Gumbel margins.

    F(x, y) = exp(-e^{-x} Phi(lam + (y-x)/(2 lam)) - e^{-y} Phi(lam + (x-y)/(2 lam)))
    with the complete-dependence (lam = 0) and independence (lam = inf) limits.
    ``x`` and ``y`` broadcast against each other; floats in give a float out.
    """
    _check_lambda(lam)
    if lam == 0.0:
        return gumbel_cdf(np.minimum(x, y))
    if math.isinf(lam):
        return gumbel_cdf(x) * gumbel_cdf(y)
    z = (y - x) / (2.0 * lam)
    out = np.exp(-np.exp(-x) * sc.ndtr(lam + z) - np.exp(-y) * sc.ndtr(lam - z))
    return out if out.ndim else float(out)


def extremal_coefficient(lam: float) -> float:
    """Effective number of independent components of a Husler-Reiss pair:
    theta = 2 Phi(lambda), clamped to [1, 2]."""
    _check_lambda(lam)
    if math.isinf(lam):
        return 2.0
    return float(min(2.0, max(1.0, 2.0 * sc.ndtr(lam))))
