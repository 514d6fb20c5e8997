import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from besselbr.brown_resnick import gumbel_cdf, hr_bivariate_cdf, hr_lambda
from besselbr.numerics import StreamKey
from besselbr.rescale import bessel_constants, normal_constants, scalar_constants
from besselbr.stats import (
    PAIR_CHUNK,
    _local_pair_maxima,
    bivariate_cdf_diff,
    fdd_check,
    ks_statistic,
    marginal_gumbel_sweep,
    two_sample_ks,
)


def gumbel_draws(key, count):
    return np.array([-math.log(-math.log(p)) for p in key.generator().random(count)])


class TestKSStatistic:
    def test_single_point_against_gumbel(self):
        value = ks_statistic([0.0], gumbel_cdf)
        assert value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    def test_sample_from_the_model_is_small(self):
        draws = gumbel_draws(StreamKey(11), 10**5)
        assert ks_statistic(draws, gumbel_cdf) <= 0.0065

    def test_permutation_invariance(self):
        draws = gumbel_draws(StreamKey(12), 500)
        a = ks_statistic(draws, gumbel_cdf)
        b = ks_statistic(draws[::-1].copy(), gumbel_cdf)
        assert a == b

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], gumbel_cdf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            ks_statistic([0.0, bad], gumbel_cdf)

    @pytest.mark.parametrize("count", [10**3, 10**5])
    def test_respects_critical_band(self, count):
        draws = gumbel_draws(StreamKey(13), count)
        assert ks_statistic(draws, gumbel_cdf) <= 1.63 / math.sqrt(count)


class TestTwoSampleKS:
    def test_identical_samples(self):
        xs = [1.0, 2.0, 3.0]
        assert two_sample_ks(xs, xs) == 0.0

    def test_disjoint_supports(self):
        a = [0.0, 1.0]
        b = [5.0, 6.0]
        assert two_sample_ks(a, b) == 1.0

    def test_symmetry(self):
        a = gumbel_draws(StreamKey(14), 100)
        b = gumbel_draws(StreamKey(15), 130)
        assert two_sample_ks(a, b) == two_sample_ks(b, a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            two_sample_ks([], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            two_sample_ks([0.0, bad], [1.0])
        with pytest.raises(ValueError):
            two_sample_ks([1.0], [bad, 0.0])


class TestBivariateCdfDiff:
    def test_self_comparison_is_zero(self):
        pairs = np.column_stack(
            [gumbel_draws(StreamKey(16), 400), gumbel_draws(StreamKey(17), 400)]
        )
        grid = [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]

        def empirical(x, y):
            return np.mean((pairs[:, 0] <= x[:, None]) & (pairs[:, 1] <= y[:, None]), axis=1)

        assert bivariate_cdf_diff(pairs, empirical, grid) <= 1.0 / 400

    def test_independent_gumbel_pairs_match_independence_model(self):
        n = 10**4
        pairs = np.column_stack(
            [gumbel_draws(StreamKey(18), n), gumbel_draws(StreamKey(19), n)]
        )
        grid = [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
        model = lambda x, y: gumbel_cdf(x) * gumbel_cdf(y)
        assert bivariate_cdf_diff(pairs, model, grid) <= 0.02

    def test_comonotone_pairs_match_complete_dependence_model(self):
        n = 10**4
        draws = gumbel_draws(StreamKey(20), n)
        pairs = np.column_stack([draws, draws])
        grid = [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
        model = lambda x, y: gumbel_cdf(np.minimum(x, y))
        assert bivariate_cdf_diff(pairs, model, grid) <= 0.02

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            bivariate_cdf_diff(np.empty((0, 2)), lambda x, y: np.zeros_like(x), [(0.0, 0.0)])
        with pytest.raises(ValueError):
            bivariate_cdf_diff(np.zeros((5, 2)), lambda x, y: np.zeros_like(x), [])


def decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


class TestMarginalGumbelSweep:
    # exact distances sup_s |F_n(s) - exp(-e^{-s})| at n = 100, 1,000, 10,000, to the
    # digits shown; scalar m = 2 has the law of bessel m = 2 after norming
    TABLE = {
        ("bessel", 1): ((0.0402, 0.0283, 0.0229), 5e-5),
        ("bessel", 2): ((0.0027158, 0.00027076, 2.7068e-5), 5e-6),
        ("bessel", 3): ((0.072081, 0.053813, 0.043716), 5e-6),
        ("scalar", 2): ((0.0027158, 0.00027076, 2.7068e-5), 5e-6),
        ("bm", 1): ((0.0589, 0.0480, 0.0405), 5e-5),
    }

    def test_exact_rows_match_table_and_dense_grid(self):
        # at n = 2, 100 and 10,000 the oracle is scipy.stats' survival function on
        # 400,001 points and at the one kink s = -b / a (chi-square at x = 0);
        # elsewhere the grid misses the sup by at most h^2 / 8 * max|D''|, below
        # 1e-8 here.  A sup at that kink (bessel m = 1, n = 2) is refined only to
        # the minimiser's x-tolerance, about 1e-9 in value.  At n = 2 bessel m = 5
        # and m = 40 have b_n < 0, so F_n is 0 below s = -b_n / 2
        assert bessel_constants(2, 5).b < 0 and bessel_constants(2, 40).b < 0
        laws = {
            "bessel": lambda m, n: (scipy_stats.chi2(m), bessel_constants(n, m)),
            "scalar": lambda m, n: (scipy_stats.laplace(), scalar_constants(n, m)),
            "bm": lambda m, n: (scipy_stats.norm(), normal_constants(n)),
        }
        grid = np.linspace(-6.0, 44.0, 400_001)
        gumbel = gumbel_cdf(grid)
        cases = [("bessel", m) for m in (1, 2, 3, 5, 40)] + [("scalar", 2), ("bm", 1)]
        for process, m in cases:
            values = marginal_gumbel_sweep(process, m, [2, 100, 1000, 10000], 1, StreamKey(0))
            if (process, m) in self.TABLE:
                expected, tolerance = self.TABLE[process, m]
                assert values[1:] == pytest.approx(expected, abs=tolerance), (process, m)
            for n, value in zip([2, 100, 10000], values[:2] + values[3:]):
                law, consts = laws[process](m, n)
                kink = -consts.b / consts.a
                with np.errstate(divide="ignore"):
                    fn = np.exp(n * np.log1p(-law.sf(consts.a * np.append(grid, kink) + consts.b)))
                dense = np.max(np.abs(fn - np.append(gumbel, gumbel_cdf(kink))))
                assert value == pytest.approx(dense, abs=1e-8), (process, m, n, value, dense)

    def test_deterministic_under_fixed_key(self):
        key = StreamKey(21)
        a = marginal_gumbel_sweep("scalar", 3, [100, 1000], 500, key)
        b = marginal_gumbel_sweep("scalar", 3, [100, 1000], 500, key)
        assert a == b

    def test_scalar_pair_maxima_sweep_is_thread_invariant(self):
        # 1,250 replicates cross two fixed chunk boundaries; n = 2 has b < 0
        replicates = 1250
        assert replicates > 2 * PAIR_CHUNK
        key = StreamKey(25)
        a = marginal_gumbel_sweep("scalar", 3, [2, 100, 1000], replicates, key, threads=1)
        b = marginal_gumbel_sweep("scalar", 3, [2, 100, 1000], replicates, key, threads=4)
        assert a == b

    def test_bm_baseline(self):
        values = marginal_gumbel_sweep("bm", 1, [100, 1000, 10000], 2000, StreamKey(23))
        assert values[-1] <= 0.10

    def test_scalar_general_m_runs(self):
        values = marginal_gumbel_sweep("scalar", 4, [100, 1000], 400, StreamKey(24))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_scalar_m3_sweep_is_coupled_across_n(self):
        # every n draws from the one key, so the bias decrease shows per seed
        wins = sum(
            decreasing(
                marginal_gumbel_sweep("scalar", 3, [100, 1000, 10000], 2000, StreamKey(1000 + seed))
            )
            for seed in range(20)
        )
        assert wins >= 18

    def test_validation(self):
        with pytest.raises(ValueError):
            marginal_gumbel_sweep("bessel", 2, [100, 100], 10, StreamKey(1))
        with pytest.raises(ValueError):
            marginal_gumbel_sweep("unknown", 2, [100], 10, StreamKey(1))


class TestFddCheck:
    def test_equal_times_rejected(self):
        with pytest.raises(ValueError):
            fdd_check("bessel", 2, (0.5, 0.5), 100, 10, StreamKey(1))

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError):
            fdd_check("ou", 2, (0.0, 1.0), 100, 10, StreamKey(1))

    def test_deterministic_and_thread_invariant(self):
        # 1,250 replicates cross two fixed chunk boundaries
        replicates = 1250
        assert replicates > 2 * PAIR_CHUNK
        key = StreamKey(26)
        a = fdd_check("bessel", 2, (0.0, 1.0), 500, replicates, key, threads=1)
        b = fdd_check("bessel", 2, (0.0, 1.0), 500, replicates, key, threads=4)
        assert a == b

    def test_limit_process_self_harness_quick(self):
        # pilot range at 2000 replicates was 0.005..0.015 (threshold here is
        # looser than the acceptance one because of the smaller sample)
        value = fdd_check("br", 2, (0.0, 1.0), 0, 2000, StreamKey(27))
        assert value <= 0.05

    def test_reversed_times_give_same_value(self):
        a = fdd_check("bessel", 2, (0.0, 1.0), 500, 400, StreamKey(28))
        b = fdd_check("bessel", 2, (1.0, 0.0), 500, 400, StreamKey(28))
        assert a == b

    def test_pair_maxima_bytes_do_not_depend_on_threads(self):
        # 1,250 replicates cross two fixed chunk boundaries
        replicates = 1250
        assert replicates > 2 * PAIR_CHUNK
        ts = np.array([0.0, 1.0])
        pairs, copies = _local_pair_maxima("bessel", 2, ts, 10**4, StreamKey(30), replicates, 1)
        pooled, pooled_copies = _local_pair_maxima(
            "bessel", 2, ts, 10**4, StreamKey(30), replicates, 4
        )
        assert pairs.tobytes() == pooled.tobytes() and copies.tobytes() == pooled_copies.tobytes()

    def test_reports_copies_per_replicate(self):
        found = {}
        fdd_check("scalar", 2, (0.25, 0.75), 10**4, 300, StreamKey(31), diagnostics=found)
        assert list(found) == ["copies_per_replicate"]
        assert 1.0 <= found["copies_per_replicate"] < 10**4

    @pytest.mark.parametrize("process,m", [("bessel", 2), ("scalar", 3)])
    def test_cost_does_not_grow_with_n(self, process, m):
        copies = {}
        for n in (10**4, 10**8):
            found = {}
            value = fdd_check(process, m, (0.0, 1.0), n, 200, StreamKey(32), diagnostics=found)
            assert 0.0 <= value <= 1.0
            copies[n] = found["copies_per_replicate"]
        assert copies[10**8] <= 2.0 * copies[10**4]

    def test_model_agrees_with_hr_at_levels(self):
        # coarse functional check that the harness uses the intended model
        assert hr_bivariate_cdf(0.0, 0.0, hr_lambda(0.0, 1.0)) == pytest.approx(
            math.exp(-2.0 * 0.6914624612740131), abs=1e-9
        )
