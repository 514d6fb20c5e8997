import math

import numpy as np
import pytest
from scipy import special as sc

from besselbr.brown_resnick import BRTruncationSpec, sample_br, sample_br_exact
from besselbr.numerics import StreamKey
from besselbr.paths import (
    SamplePath,
    _brownian,
    make_dyadic_grid,
    scalar_product_batch,
    squared_bessel_batch,
    time_index,
)
from besselbr.rescale import pair_maxima
from besselbr.stats import fdd_check, ks_statistic, two_sample_ks

N_REPLICATES = 10**5
KS_1PCT = 0.006  # one-sample band at N = 1e5: 1% critical 1.63/sqrt(N) ~ 0.0052
TWO_SAMPLE_1PCT_1E4 = 0.024  # 1.63*sqrt(2/N) at N = 1e4 ~ 0.0231


class TestDyadicGrid:
    def test_dyadic_k0(self):
        assert np.array_equal(make_dyadic_grid(0), [0.0, 1.0])

    def test_dyadic_k1(self):
        assert np.array_equal(make_dyadic_grid(1), [0.0, 0.5, 1.0])

    def test_dyadic_k3(self):
        grid = make_dyadic_grid(3)
        assert len(grid) == 9
        assert np.allclose(np.diff(grid), 0.125, rtol=0, atol=0)
        assert not grid.flags.writeable

    def test_dyadic_limits(self):
        with pytest.raises(ValueError):
            make_dyadic_grid(25)
        with pytest.raises(ValueError):
            make_dyadic_grid(-1)

    def test_time_index(self):
        grid = make_dyadic_grid(2)
        assert time_index(grid, 0.5) == 2
        assert time_index(grid, 0.0) == 0 and time_index(grid, 1.0) == 4
        for t in (0.3, 1.5):
            with pytest.raises(ValueError, match=f"{t} is not a grid point"):
                time_index(grid, t)


_WINDOW_SAMPLERS = {
    "sample_br": lambda ts: sample_br(ts, BRTruncationSpec(), StreamKey(1)),
    "sample_br_exact": lambda ts: sample_br_exact(ts, StreamKey(1), 10),
    "pair_maxima": lambda ts: pair_maxima("bessel", ts, 100, 2, StreamKey(1), 10),
    "fdd_check": lambda ts: fdd_check("br", 2, ts, 100, 10, StreamKey(1)),
}
_INVALID_TIMES = {
    "empty": [],
    "negative": [-0.5, 0.5],
    "repeated": [0.5, 0.5],
    "decreasing": [0.75, 0.25],
    "above-1": [0.5, 1.5],
    "nan": [0.5, math.nan],
}


@pytest.mark.parametrize(
    "sampler, times",
    [
        pytest.param(sampler, times, id=f"{sampler}-{case}")
        for sampler in _WINDOW_SAMPLERS
        for case, times in _INVALID_TIMES.items()
        if (sampler, case) != ("fdd_check", "decreasing")  # fdd_check orders its two times
    ],
)
def test_times_outside_the_window_are_rejected(sampler, times):
    with pytest.raises(ValueError):
        _WINDOW_SAMPLERS[sampler](times)


class TestSamplePath:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SamplePath(make_dyadic_grid(1), [0.0, 1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SamplePath(make_dyadic_grid(0), [0.0, np.inf])


@pytest.fixture(scope="module")
def bm_endpoints():
    # values at t in {0, 0.5, 1} across many replicates, reused by the
    # distributional tests below
    times = np.array([0.0, 0.5, 1.0])
    return _brownian(times, StreamKey(101).generator(), (N_REPLICATES,))


class TestBrownianMotion:
    def test_starts_at_zero(self):
        path = _brownian(make_dyadic_grid(4), StreamKey(3).generator(), ())
        assert path[0] == 0.0

    def test_terminal_value_is_standard_normal(self, bm_endpoints):
        ks = ks_statistic(bm_endpoints[:, 2], sc.ndtr)
        assert ks <= KS_1PCT

    def test_variance_at_half(self, bm_endpoints):
        # 3-sigma band for the variance estimator at N = 1e5 is ~0.007
        assert abs(bm_endpoints[:, 1].var() - 0.5) <= 0.01

    def test_determinism(self):
        times = make_dyadic_grid(5)
        key = StreamKey(55, replicate_index=4)
        first = _brownian(times, key.generator(), ())
        assert first.tobytes() == _brownian(times, key.generator(), ()).tobytes()

    def test_leading_zero_takes_no_draw(self):
        # B(0) = 0 is known: the rest is the same motion on the positive times
        times = np.array([0.0, 0.25, 0.5, 1.0])
        key = StreamKey(56)
        with_zero = _brownian(times, key.generator(), (3, 2))
        positive = _brownian(times[1:], key.generator(), (3, 2))
        front = np.zeros((3, 2, 1))
        assert with_zero.tobytes() == np.concatenate((front, positive), axis=-1).tobytes()

    @pytest.mark.parametrize(
        "times,per_motion",
        [([0.25, 0.5, 1.0], 3), ([0.0, 0.5, 1.0], 2)],
        ids=["positive", "leading-zero"],
    )
    def test_normals_drawn_per_motion(self, times, per_motion):
        rng, reference = StreamKey(57).generator(), StreamKey(57).generator()
        _brownian(np.array(times), rng, (5,))
        reference.standard_normal(5 * per_motion)
        assert rng.standard_normal() == reference.standard_normal()


@pytest.fixture(scope="module")
def bessel_terminal_m2():
    return squared_bessel_batch([1.0], 2, StreamKey(202), N_REPLICATES)[:, 0]


class TestSquaredBessel:
    def test_starts_at_zero_and_nonnegative(self):
        path = squared_bessel_batch(make_dyadic_grid(4), 3, StreamKey(9), 1)[0]
        assert path[0] == 0.0
        assert np.all(path >= 0.0)

    def test_m2_terminal_tail_is_exponential(self, bessel_terminal_m2):
        ks = ks_statistic(bessel_terminal_m2, lambda x: 1.0 - np.exp(-x / 2.0))
        assert ks <= KS_1PCT

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            squared_bessel_batch(make_dyadic_grid(1), 0, StreamKey(1), 1)


def _laplace_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0, 1.0 - 0.5 * np.exp(-x), 0.5 * np.exp(x))


@pytest.fixture(scope="module")
def scalar_terminal_m2():
    return scalar_product_batch([1.0], 2, StreamKey(303), N_REPLICATES)[:, 0]


class TestScalarProduct:
    def test_starts_at_zero(self):
        path = scalar_product_batch(make_dyadic_grid(3), 2, StreamKey(4), 1)[0]
        assert path[0] == 0.0

    def test_m2_terminal_is_laplace(self, scalar_terminal_m2):
        ks = ks_statistic(scalar_terminal_m2, _laplace_cdf)
        assert ks <= KS_1PCT

    def test_sign_symmetry(self, scalar_terminal_m2):
        ks = two_sample_ks(scalar_terminal_m2, -scalar_terminal_m2)
        assert ks <= 0.01

    def test_mean_zero_band(self):
        # pointwise 4-sigma band; sd of the mean at time t is t sqrt(m/N)
        grid = make_dyadic_grid(4)
        n = 20000
        means = scalar_product_batch(grid, 2, StreamKey(404), n).mean(axis=0)
        bands = 4.0 * grid * math.sqrt(2.0 / n)
        assert np.all(np.abs(means) <= np.maximum(bands, 1e-12))


class TestGridRefinement:
    def test_subgrid_restriction_matches_direct_sampling(self):
        # restricting a k=4 path to the k=3 subgrid must agree in law with
        # sampling on k=3 directly; checked on the value at 0.5 and on the
        # increment over (0.5, 1]
        fine, coarse = make_dyadic_grid(4), make_dyadic_grid(3)
        n = 10**4
        f = _brownian(fine, StreamKey(70).generator(), (n,))
        c = _brownian(coarse, StreamKey(71).generator(), (n,))
        f_half, c_half = f[:, time_index(fine, 0.5)], c[:, time_index(coarse, 0.5)]
        assert two_sample_ks(f_half, c_half) <= TWO_SAMPLE_1PCT_1E4
        assert two_sample_ks(f[:, -1] - f_half, c[:, -1] - c_half) <= TWO_SAMPLE_1PCT_1E4


class TestDeterminism:
    @pytest.mark.parametrize(
        "sampler",
        [
            lambda t, k: _brownian(t, k.generator(), ()),
            lambda t, k: squared_bessel_batch(t, 3, k, 1),
            lambda t, k: scalar_product_batch(t, 2, k, 1),
        ],
    )
    def test_identical_key_identical_bytes(self, sampler):
        times = make_dyadic_grid(4)
        key = StreamKey(99, replicate_index=7)
        assert sampler(times, key).tobytes() == sampler(times, key).tobytes()
