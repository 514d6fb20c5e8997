"""Certified quadrature, reproducible random streams and the thread-pool map.

Everything stochastic in this package draws its randomness through
:class:`StreamKey`.  A key is the triple (master_seed, replicate_index,
substream_index); it is mixed through ``numpy.random.SeedSequence`` into a
Philox counter-based generator, so the stream behind a key is a pure function
of the triple.  Creating streams in a different order, on a different worker,
or interleaved with other streams never changes what any key yields.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

__all__ = [
    "StreamKey",
    "QuadratureSpec",
    "QuadratureError",
    "DEFAULT_QUADRATURE",
    "integrate",
    "parallel_map",
]

_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class StreamKey:
    """Address of one reproducible random stream.

    Replicates of an experiment differ in ``replicate_index``; independent
    noise sources inside one replicate (coordinates, point indices, arrival
    clocks) differ in ``substream_index``.  Distinct triples give
    statistically independent Philox streams, identical triples always give
    the identical stream.
    """

    master_seed: int
    replicate_index: int = 0
    substream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "replicate_index", "substream_index"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
            if not 0 <= value <= _U64_MAX:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")

    def with_replicate(self, index) -> "StreamKey":
        return replace(self, replicate_index=int(index))

    def with_substream(self, index) -> "StreamKey":
        return replace(self, substream_index=int(index))

    def generator(self) -> np.random.Generator:
        """Fresh generator for this key; owned by the caller from here on."""
        seq = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(self.replicate_index, self.substream_index),
        )
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy request for :func:`integrate`."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot certify the requested tolerance.

    Carries the last estimate and its error bound so callers can decide
    whether the partial answer is still useful.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message.strip()} [estimate={estimate!r}, error_bound={error_bound!r}]")
        self.estimate = float(estimate)
        self.error_bound = float(error_bound)


def integrate(f, lo, hi, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Adaptive quadrature of ``f`` over (lo, hi); ``hi`` may be ``numpy.inf``.

    Returns an estimate certified within ``max(abs_tol, rel_tol * |value|)``
    or raises :class:`QuadratureError` with the last estimate attached.
    """
    if not lo < hi:
        raise ValueError(f"integration interval is empty: ({lo}, {hi})")
    out = quad(
        f,
        lo,
        hi,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=True,
    )
    value, error_bound = out[0], out[1]
    if len(out) > 3:  # QUADPACK appended a warning message
        raise QuadratureError(out[3], value, error_bound)
    return float(value)


def parallel_map(worker, count: int, threads: int = 1) -> list:
    """Apply ``worker(i)`` for i in range(count), optionally on a thread pool.

    Results come back in index order, so downstream reductions are
    deterministic for every thread count.
    """
    if threads <= 1 or count <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(count)))
