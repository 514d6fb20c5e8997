import math

import numpy as np
import pytest
from scipy import special as sc

from besselbr.numerics import StreamKey
from besselbr.paths import (
    SamplePath,
    TimeGrid,
    make_dyadic_grid,
    sample_bm,
    sample_scalar_product,
    sample_squared_bessel,
    scalar_product_batch,
    squared_bessel_batch,
)
from besselbr.stats import ks_statistic, two_sample_ks

N_REPLICATES = 10**5
KS_1PCT = 0.006  # one-sample band at N = 1e5: 1% critical 1.63/sqrt(N) ~ 0.0052
TWO_SAMPLE_1PCT_1E4 = 0.024  # 1.63*sqrt(2/N) at N = 1e4 ~ 0.0231


class TestTimeGrid:
    def test_dyadic_k0(self):
        assert np.array_equal(make_dyadic_grid(0).points, [0.0, 1.0])

    def test_dyadic_k1(self):
        assert np.array_equal(make_dyadic_grid(1).points, [0.0, 0.5, 1.0])

    def test_dyadic_k3(self):
        grid = make_dyadic_grid(3)
        assert len(grid) == 9
        assert np.allclose(np.diff(grid.points), 0.125, rtol=0, atol=0)

    def test_dyadic_limits(self):
        with pytest.raises(ValueError):
            make_dyadic_grid(25)
        with pytest.raises(ValueError):
            make_dyadic_grid(-1)

    @pytest.mark.parametrize(
        "points",
        [
            [0.0],
            [0.1, 0.5, 1.0],
            [0.0, 0.5, 0.9],
            [0.0, 0.5, 0.5, 1.0],
            [0.0, 0.7, 0.6, 1.0],
        ],
    )
    def test_invalid_grids(self, points):
        with pytest.raises(ValueError):
            TimeGrid(points)

    def test_index_of(self):
        grid = make_dyadic_grid(2)
        assert grid.index_of(0.5) == 2
        with pytest.raises(ValueError):
            grid.index_of(0.3)


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
    grid = TimeGrid([0.0, 0.5, 1.0])
    out = np.empty((N_REPLICATES, 3))
    key = StreamKey(101)
    for r in range(N_REPLICATES):
        out[r] = sample_bm(grid, key.with_replicate(r)).values
    return out


class TestBrownianMotion:
    def test_starts_at_zero(self):
        path = sample_bm(make_dyadic_grid(4), StreamKey(3))
        assert path.values[0] == 0.0

    def test_terminal_value_is_standard_normal(self, bm_endpoints):
        ks = ks_statistic(bm_endpoints[:, 2], sc.ndtr)
        assert ks <= KS_1PCT

    def test_variance_at_half(self, bm_endpoints):
        # 3-sigma band for the variance estimator at N = 1e5 is ~0.007
        assert abs(bm_endpoints[:, 1].var() - 0.5) <= 0.01

    def test_determinism(self):
        grid = make_dyadic_grid(5)
        key = StreamKey(55, replicate_index=4)
        assert sample_bm(grid, key).values.tobytes() == sample_bm(grid, key).values.tobytes()


@pytest.fixture(scope="module")
def bessel_terminal_m2():
    grid = TimeGrid([0.0, 1.0])
    key = StreamKey(202)
    return np.array(
        [sample_squared_bessel(grid, 2, key.with_replicate(r)).values[1] for r in range(N_REPLICATES)]
    )


class TestSquaredBessel:
    def test_starts_at_zero_and_nonnegative(self):
        path = sample_squared_bessel(make_dyadic_grid(4), 3, StreamKey(9))
        assert path.values[0] == 0.0
        assert np.all(path.values >= 0.0)

    def test_m2_terminal_tail_is_exponential(self, bessel_terminal_m2):
        ks = ks_statistic(bessel_terminal_m2, lambda x: 1.0 - np.exp(-x / 2.0))
        assert ks <= KS_1PCT

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            sample_squared_bessel(make_dyadic_grid(1), 0, StreamKey(1))


def _laplace_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0, 1.0 - 0.5 * np.exp(-x), 0.5 * np.exp(x))


@pytest.fixture(scope="module")
def scalar_terminal_m2():
    grid = TimeGrid([0.0, 1.0])
    key = StreamKey(303)
    return np.array(
        [sample_scalar_product(grid, 2, key.with_replicate(r)).values[1] for r in range(N_REPLICATES)]
    )


class TestScalarProduct:
    def test_starts_at_zero(self):
        path = sample_scalar_product(make_dyadic_grid(3), 2, StreamKey(4))
        assert path.values[0] == 0.0

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
        key = StreamKey(404)
        acc = np.zeros(len(grid))
        for r in range(n):
            acc += sample_scalar_product(grid, 2, key.with_replicate(r)).values
        means = acc / n
        bands = 4.0 * grid.points * math.sqrt(2.0 / n)
        assert np.all(np.abs(means) <= np.maximum(bands, 1e-12))


class TestGridRefinement:
    def test_subgrid_restriction_matches_direct_sampling(self):
        # restricting a k=4 path to the k=3 subgrid must agree in law with
        # sampling on k=3 directly; checked on the value at 0.5 and on the
        # increment over (0.5, 1]
        fine, coarse = make_dyadic_grid(4), make_dyadic_grid(3)
        n = 10**4
        key_fine, key_coarse = StreamKey(70), StreamKey(71)
        at_half = np.empty((2, n))
        increment = np.empty((2, n))
        for r in range(n):
            f = sample_bm(fine, key_fine.with_replicate(r))
            c = sample_bm(coarse, key_coarse.with_replicate(r))
            at_half[0, r] = f.value_at(0.5)
            at_half[1, r] = c.value_at(0.5)
            increment[0, r] = f.values[-1] - f.value_at(0.5)
            increment[1, r] = c.values[-1] - c.value_at(0.5)
        assert two_sample_ks(at_half[0], at_half[1]) <= TWO_SAMPLE_1PCT_1E4
        assert two_sample_ks(increment[0], increment[1]) <= TWO_SAMPLE_1PCT_1E4


class TestBatchViews:
    @pytest.mark.parametrize(
        "sampler, batch",
        [
            (sample_squared_bessel, squared_bessel_batch),
            (sample_scalar_product, scalar_product_batch),
        ],
    )
    def test_path_is_row_zero_of_batch(self, sampler, batch):
        # per-path samplers spend no draw on t = 0 and read row 0 of a batch
        grid = make_dyadic_grid(3)
        key = StreamKey(98, replicate_index=5)
        path = sampler(grid, 3, key)
        assert path.values[0] == 0.0
        row = batch(grid.points[1:], 3, key, 1)[0]
        assert path.values[1:].tobytes() == row.tobytes()


class TestDeterminism:
    @pytest.mark.parametrize(
        "sampler",
        [
            lambda g, k: sample_bm(g, k),
            lambda g, k: sample_squared_bessel(g, 3, k),
            lambda g, k: sample_scalar_product(g, 2, k),
        ],
    )
    def test_identical_key_identical_bytes(self, sampler):
        grid = make_dyadic_grid(4)
        key = StreamKey(99, replicate_index=7)
        assert sampler(grid, key).values.tobytes() == sampler(grid, key).values.tobytes()
