import hashlib
import math

import numpy as np
import pytest
from scipy import special as sc

from besselbr.brown_resnick import (
    _FIRST_ROWS,
    _MAX_ROWS,
    BRTruncationSpec,
    TruncationError,
    extremal_coefficient,
    gumbel_cdf,
    hr_bivariate_cdf,
    hr_lambda,
    sample_br,
    sample_br_batch,
    sample_br_exact,
)
from besselbr.numerics import StreamKey
from besselbr.paths import SamplePath, make_dyadic_grid, time_index
from besselbr.stats import bivariate_cdf_diff, ks_statistic, two_sample_ks


def _reference_sample_br(pts, spec, key):
    """The point-by-point loop ``sample_br`` replaced, kept as an oracle on times from 0.

    Returns the path and the number of points it consumed.
    """
    arrivals = key.with_substream(key.substream_index).generator()
    wiener = key.with_substream(key.substream_index + 1).generator()
    c_eps = float(sc.ndtri(1.0 - spec.epsilon / 2.0))

    drift = -pts / 2.0
    sq_steps = np.sqrt(np.diff(pts))

    best = None
    floor = -np.inf
    gamma = 0.0
    produced = 0
    while produced < spec.max_points:
        take = min(64, spec.max_points - produced)
        expo = arrivals.standard_exponential(take)
        z = wiener.standard_normal((take, pts.size - 1))
        for i in range(take):
            gamma += expo[i]
            x = -math.log(gamma)
            if x + c_eps < floor:
                return SamplePath(pts, best), produced
            contribution = np.empty(pts.size)
            contribution[0] = 0.0
            np.cumsum(z[i] * sq_steps, out=contribution[1:])
            contribution += x + drift
            best = contribution if best is None else np.maximum(best, contribution)
            floor = best.min()
            produced += 1
    raise TruncationError(
        f"stopping rule did not fire within {spec.max_points} points",
        SamplePath(pts, best),
    )


def _dieker_mikosch(times, key, rows):
    """Exact Brown-Resnick rows at ``times``: Dieker & Mikosch, Extremes 2015.

    M = log max_k Y_k / Gamma_k over unit-rate Poisson arrivals Gamma_k, with
    spectral functions Y = exp(V) / mean_j exp(V(t_j)), where V(t) = W(t) -
    W(T) - |t - T|/2 for a Brownian motion W and T uniform on the N times.
    Each Y has grid mean 1 and is at most N, so a row stops exactly once
    N / Gamma_k is at most its current minimum.  Shares no code with
    ``sample_br_exact`` beyond the law it targets.
    """
    times = np.asarray(times, dtype=float)
    rng = key.generator()
    sq_steps = np.sqrt(np.diff(times))
    frechet = np.zeros((rows, times.size))
    gamma = np.zeros(rows)
    active = np.arange(rows)
    while active.size:
        gamma[active] += rng.standard_exponential(active.size)
        active = active[times.size / gamma[active] > frechet[active].min(axis=1)]
        w = np.zeros((active.size, times.size))
        np.cumsum(rng.standard_normal((active.size, times.size - 1)) * sq_steps, axis=1,
                  out=w[:, 1:])
        centre = rng.integers(times.size, size=active.size)
        v = w - w[np.arange(active.size), centre][:, None]
        v -= np.abs(times - times[centre][:, None]) / 2.0
        spectral = np.exp(v) / np.exp(v).mean(axis=1, keepdims=True)
        frechet[active] = np.maximum(frechet[active], spectral / gamma[active][:, None])
    return np.log(frechet)


class TestGumbel:
    def test_at_zero(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_monotone_limits(self):
        assert gumbel_cdf(40.0) == pytest.approx(1.0, abs=1e-15)
        assert gumbel_cdf(-40.0) == pytest.approx(0.0, abs=1e-15)
        xs = np.linspace(-6, 6, 25)
        vals = [gumbel_cdf(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_median(self):
        assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, abs=1e-14)

    def test_quantile_round_trip(self):
        for p in (0.01, 0.4, 0.97):
            assert gumbel_cdf(-math.log(-math.log(p))) == pytest.approx(p, abs=1e-12)

    def test_array_matches_math_exp_bytes(self):
        def reference(x):
            try:
                return math.exp(-math.exp(-x))
            except OverflowError:
                return 0.0

        draws = -np.log(-np.log(StreamKey(2040).generator().random(10**5)))
        xs = np.concatenate([draws, [-800.0, -709.9, -709.5, -709.0, math.inf, -math.inf]])
        expected = np.array([reference(x) for x in xs.tolist()])
        assert gumbel_cdf(xs).tobytes() == expected.tobytes()
        assert gumbel_cdf(xs.reshape(2, -1)).tobytes() == expected.tobytes()
        assert isinstance(gumbel_cdf(0.5), float) and gumbel_cdf(0.5) == reference(0.5)


class TestHRLambda:
    def test_equal_times(self):
        assert hr_lambda(0.3, 0.3) == 0.0

    def test_unit_gap(self):
        assert hr_lambda(0.0, 1.0) == pytest.approx(0.5, abs=0)

    def test_symmetry(self):
        assert hr_lambda(0.2, 0.9) == hr_lambda(0.9, 0.2)

    def test_domain(self):
        with pytest.raises(ValueError):
            hr_lambda(-0.1, 0.5)
        for lam in (-1.0, math.nan):
            with pytest.raises(ValueError):
                hr_bivariate_cdf(0.0, 0.0, lam)
            with pytest.raises(ValueError):
                extremal_coefficient(lam)


class TestHRBivariate:
    def test_complete_dependence(self):
        assert hr_bivariate_cdf(0.0, 1.0, 0.0) == pytest.approx(
            math.exp(-1.0), abs=1e-15
        )

    def test_independence(self):
        assert hr_bivariate_cdf(0.0, 0.0, math.inf) == pytest.approx(
            math.exp(-2.0), abs=1e-15
        )

    def test_diagonal_value(self):
        # F(0, 0) = exp(-2 Phi(1/2)); reference via the error function
        phi_half = 0.5 * (1.0 + math.erf(0.5 / math.sqrt(2.0)))
        assert hr_bivariate_cdf(0.0, 0.0, 0.5) == pytest.approx(
            math.exp(-2.0 * phi_half), abs=1e-14
        )
        assert hr_bivariate_cdf(0.0, 0.0, 0.5) == pytest.approx(0.2509, abs=2e-4)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("x", [-1.0, 0.0, 2.0])
    def test_diagonal_matches_extremal_coefficient(self, lam, x):
        theta = extremal_coefficient(lam)
        assert hr_bivariate_cdf(x, x, lam) == pytest.approx(
            math.exp(theta * math.log(gumbel_cdf(x))), abs=1e-12
        )

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 2.0, math.inf])
    def test_arrays_match_elementwise_calls(self, lam):
        levels = np.concatenate([np.linspace(-3.0, 4.0, 29), [-30.0, 40.0]])
        values = hr_bivariate_cdf(levels[:, None], levels[None, :], lam)
        expected = [[hr_bivariate_cdf(x, y, lam) for y in levels.tolist()] for x in levels.tolist()]
        assert values.tobytes() == np.array(expected).tobytes()
        assert hr_bivariate_cdf(levels, levels[::-1], lam).tobytes() == np.diag(
            np.array(expected)[:, ::-1]
        ).tobytes()
        assert isinstance(hr_bivariate_cdf(0.5, -0.5, lam), float)

    def test_monotone_and_frechet_bounds(self):
        levels = np.linspace(-2.0, 3.0, 5)
        for lam in (0.0, 0.3, 0.8, 5.0):
            for x in levels:
                for y in levels:
                    f = hr_bivariate_cdf(x, y, lam)
                    assert f <= min(gumbel_cdf(x), gumbel_cdf(y)) + 1e-15
                    assert f >= gumbel_cdf(x) * gumbel_cdf(y) - 1e-15
                    # nondecreasing in each argument
                    assert hr_bivariate_cdf(x + 0.5, y, lam) >= f - 1e-15
                    assert hr_bivariate_cdf(x, y + 0.5, lam) >= f - 1e-15


class TestExtremalCoefficient:
    def test_limits(self):
        assert extremal_coefficient(0.0) == 1.0
        assert extremal_coefficient(math.inf) == 2.0

    def test_half(self):
        assert extremal_coefficient(0.5) == pytest.approx(
            1.0 + math.erf(0.5 / math.sqrt(2.0)), abs=1e-14
        )
        assert extremal_coefficient(0.5) == pytest.approx(1.38292, abs=1e-5)

    def test_range(self):
        for lam in (0.0, 0.1, 1.0, 3.0, 10.0):
            assert 1.0 <= extremal_coefficient(lam) <= 2.0


class TestTruncationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BRTruncationSpec(epsilon=0.0)
        with pytest.raises(ValueError):
            BRTruncationSpec(epsilon=1.0)
        with pytest.raises(ValueError):
            BRTruncationSpec(max_points=0)


@pytest.fixture(scope="module")
def br_batch_k4():
    grid = make_dyadic_grid(4)
    return grid, sample_br_batch(grid, BRTruncationSpec(epsilon=1e-4), StreamKey(2026), 5000)


class TestSampleBR:
    def test_determinism(self):
        grid = make_dyadic_grid(4)
        key = StreamKey(5, replicate_index=11)
        spec = BRTruncationSpec()
        a = sample_br(grid, spec, key)
        b = sample_br(grid, spec, key)
        assert a.values.tobytes() == b.values.tobytes()

    def test_batch_is_thread_invariant_stack_of_paths(self):
        # 250 replicates cross the fixed chunk boundaries of the batch runner
        grid = make_dyadic_grid(2)
        spec = BRTruncationSpec()
        key = StreamKey(2041)
        single = sample_br_batch(grid, spec, key, 250, threads=1)
        pooled = sample_br_batch(grid, spec, key, 250, threads=3)
        rows = np.vstack([sample_br(grid, spec, key.with_replicate(r)).values for r in range(250)])
        assert single.shape == (250, grid.size)
        assert single.tobytes() == pooled.tobytes() == rows.tobytes()

    def test_point_budget_exhaustion(self):
        # budgets at the edges of the first block, of a capped lookahead block and of
        # the 64-point level refills; at this epsilon every lookahead block is capped
        budgets = (1, 3, 64, 65, 130, _FIRST_ROWS, _FIRST_ROWS + 1, _MAX_ROWS, _MAX_ROWS + 1,
                   _FIRST_ROWS + _MAX_ROWS, _FIRST_ROWS + _MAX_ROWS + 1)
        for k in (2, 8):
            grid = make_dyadic_grid(k)
            for max_points in budgets:
                spec = BRTruncationSpec(epsilon=1e-12, max_points=max_points)
                with pytest.raises(TruncationError) as err:
                    sample_br(grid, spec, StreamKey(6))
                with pytest.raises(TruncationError) as ref:
                    _reference_sample_br(grid, spec, StreamKey(6))
                partial = err.value.partial
                assert partial.values.shape == grid.shape
                assert partial.values.tobytes() == ref.value.partial.values.tobytes(), (k, max_points)

    def test_budget_that_ends_at_the_stop_still_raises(self):
        # the stop at point index c is never checked under a budget of c points
        grid = make_dyadic_grid(2)
        for r in range(20):
            key = StreamKey(2043, replicate_index=r)
            path, points = _reference_sample_br(grid, BRTruncationSpec(), key)
            with pytest.raises(TruncationError):
                sample_br(grid, BRTruncationSpec(max_points=points), key)
            again = sample_br(grid, BRTruncationSpec(max_points=points + 1), key)
            assert again.values.tobytes() == path.values.tobytes(), r

    @staticmethod
    def _consumed_matching_reference(grid, spec, keys):
        consumed = []
        for r in range(keys):
            key = StreamKey(2042, replicate_index=r, substream_index=2 * r)
            expected, points = _reference_sample_br(grid, spec, key)
            assert sample_br(grid, spec, key).values.tobytes() == expected.values.tobytes(), r
            consumed.append(points)
        return consumed

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize("k", [0, 2, 8])
    def test_matches_point_by_point_reference(self, k, epsilon):
        spec = BRTruncationSpec(epsilon=epsilon)
        consumed = self._consumed_matching_reference(make_dyadic_grid(k), spec, 40)
        assert max(consumed) > _FIRST_ROWS  # some path draws a second block of points

    def test_matches_reference_when_stops_land_early(self):
        # at epsilon 0.5 the stop fires a few points in, so the bisection ends on
        # the first row it may return and on rows inside the first block
        spec = BRTruncationSpec(epsilon=0.5)
        consumed = self._consumed_matching_reference(make_dyadic_grid(8), spec, 100)
        assert min(consumed) == 1
        assert any(1 < points < _FIRST_ROWS for points in consumed)

    @pytest.mark.parametrize("epsilon, keys", [(1e-4, 3000), (0.5, 1000)])
    def test_matches_reference_on_many_two_point_paths(self, epsilon, keys):
        # enough paths to meet last-bit differences in the levels X_k, and a loose
        # budget under which a point stopped one late or early changes the values
        spec = BRTruncationSpec(epsilon=epsilon)
        self._consumed_matching_reference(make_dyadic_grid(0), spec, keys)

    def test_marginals_are_gumbel(self, br_batch_k4):
        grid, batch = br_batch_k4
        for t in (0.0, 0.5, 1.0):
            ks = ks_statistic(batch[:, time_index(grid, t)], gumbel_cdf)
            assert ks <= 0.026

    def test_stationarity(self, br_batch_k4):
        grid, batch = br_batch_k4
        ks = two_sample_ks(batch[:, 0], batch[:, -1])
        assert ks <= 0.033

    def test_max_stability_of_marginals(self, br_batch_k4):
        # max of two independent copies minus ln 2 is again Gumbel
        grid, batch = br_batch_k4
        col = time_index(grid, 1.0)
        other = sample_br_batch(
            grid, BRTruncationSpec(epsilon=1e-4), StreamKey(2027), 5000
        )[:, col]
        combined = np.maximum(batch[:, col], other) - math.log(2.0)
        reference = np.array(
            [-math.log(-math.log(p)) for p in StreamKey(2028).generator().random(5000)]
        )
        ks = two_sample_ks(combined, reference)
        assert ks <= 0.033

    def test_agrees_with_hr_bivariate(self, br_batch_k4):
        grid, batch = br_batch_k4
        pairs = batch[:, [time_index(grid, 0.0), time_index(grid, 1.0)]]
        lam = hr_lambda(0.0, 1.0)
        worst = 0.0
        for x in (-1.0, 0.0, 1.0):
            for y in (-1.0, 0.0, 1.0):
                emp = float(np.mean((pairs[:, 0] <= x) & (pairs[:, 1] <= y)))
                worst = max(worst, abs(emp - hr_bivariate_cdf(x, y, lam)))
        assert worst <= 0.04  # 5000 replicates; the acceptance suite re-runs this at 1e4

    def test_times_after_zero_match_exact_sampler_in_law(self):
        # the first Wiener increment covers (0, 0.25]: every column and one increment
        # against the exact sampler
        times = [0.25, 0.5, 0.75]
        batch = sample_br_batch(times, BRTruncationSpec(), StreamKey(2032), 5000)
        exact, _ = sample_br_exact(times, StreamKey(2033), 5000)
        statistics = [two_sample_ks(batch[:, j], exact[:, j]) for j in range(len(times))]
        statistics.append(two_sample_ks(batch[:, 2] - batch[:, 0], exact[:, 2] - exact[:, 0]))
        assert max(statistics) <= 0.033

    def test_epsilon_insensitivity_quick(self):
        grid = make_dyadic_grid(4)
        col = time_index(grid, 1.0)
        loose = sample_br_batch(grid, BRTruncationSpec(epsilon=1e-3), StreamKey(2030), 2000)[:, col]
        tight = sample_br_batch(grid, BRTruncationSpec(epsilon=1e-6), StreamKey(2031), 2000)[:, col]
        assert two_sample_ks(loose, tight) <= 0.052


# sample_br_exact at StreamKey(2060) with 2,500 replicates: the times, the
# sha256 of the paths rounded to float32 and the sha256 of spectral.tobytes().
# Rounding keeps the digests portable: numpy's float64 log differs from libm's
# in the last bit (it moved 15 of the 5,000 values at times (0, 1)), and that
# moves no float32 value here.
EXACT_STREAM_LAYOUT = {
    "0-1": ([0.0, 1.0], "76ddc44470ad3873b5716a89f7e2d4e339b0212bd41773b6e77a91dfea0f9269",
            "a23d4881146f733bc7587e144afe1c887f24e1fd0fdd6203fc130676ebd332c7"),
    "interior": ([0.25, 0.75], "34f33c49514efd5d61e668fe70eee864f86ff1f9b13f1896c90f43e6232e231c",
                 "4b317fcf7582f48b2a29a1ff3c456af75e878201e825fa9d9286215c51a21584"),
    "k3": (make_dyadic_grid(3), "cb88e30db30a371bf1b548686386739f19258bbcce13aeef52a6d2a51fe7199e",
           "214dbf1127025a8b678b67b3c9af9ebe402273a20ec9cdd4300b05e1b54c80ed"),
    "k5": (make_dyadic_grid(5), "eb1441faed76f8e32e412f40401aea4916b05ebf190d89bec295160237bd2e98",
           "c1013f4b6593073794db7c34b485b5a12c22d9d8f94f6bf69e6aea3900739e41"),
}


class TestSampleBRExact:
    def test_same_key_same_bytes_and_thread_invariant(self):
        # one stream on one thread: the bytes are a function of the key alone
        replicates = 2100
        grid = make_dyadic_grid(2)
        key = StreamKey(2050)
        paths, spectral = sample_br_exact(grid, key, replicates)
        again, again_spectral = sample_br_exact(grid, key, replicates)
        assert paths.shape == (replicates, grid.size) and spectral.shape == (replicates,)
        assert paths.tobytes() == again.tobytes()
        assert spectral.tobytes() == again_spectral.tobytes()
        assert np.all(np.isfinite(paths)) and spectral.min() >= 1

    @pytest.mark.parametrize("times", sorted(EXACT_STREAM_LAYOUT))
    def test_stream_layout_is_pinned(self, times):
        # a change to the order, number or size of any draw moves these
        grid, digest, spectral_digest = EXACT_STREAM_LAYOUT[times]
        paths, spectral = sample_br_exact(grid, StreamKey(2060), 2500)
        assert hashlib.sha256(paths.astype(np.float32).tobytes()).hexdigest() == digest
        assert hashlib.sha256(spectral.tobytes()).hexdigest() == spectral_digest

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            sample_br_exact(make_dyadic_grid(1), StreamKey(1), 0)

    def test_marginals_are_gumbel(self):
        grid = make_dyadic_grid(3)
        paths, _ = sample_br_exact(grid, StreamKey(2051), 10000)
        for j in range(grid.size):
            assert ks_statistic(paths[:, j], gumbel_cdf) <= 0.026, j

    def test_pairs_agree_with_hr_bivariate(self):
        grid = np.array([0.0, 0.25, 0.75, 1.0])
        paths, _ = sample_br_exact(grid, StreamKey(2052), 10000)
        levels = [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
        for a in range(4):
            for b in range(a + 1, 4):
                lam = hr_lambda(grid[a], grid[b])
                diff = bivariate_cdf_diff(
                    paths[:, [a, b]], lambda x, y: hr_bivariate_cdf(x, y, lam), levels
                )
                # the 5000-replicate bound of TestSampleBR::test_agrees_with_hr_bivariate,
                # here at 10,000 rows
                assert diff <= 0.04, (a, b)

    def test_matches_dieker_mikosch_in_law(self):
        # the Dieker-Mikosch sampler is an exact oracle: every column, the path
        # supremum and one increment must agree by two-sample KS
        grid = make_dyadic_grid(3)
        exact, _ = sample_br_exact(grid, StreamKey(2053), 10000)
        oracle = _dieker_mikosch(grid, StreamKey(2054), 10000)
        statistics = [two_sample_ks(exact[:, j], oracle[:, j]) for j in range(grid.size)]
        statistics.append(two_sample_ks(exact.max(axis=1), oracle.max(axis=1)))
        statistics.append(two_sample_ks(exact[:, 6] - exact[:, 2], oracle[:, 6] - oracle[:, 2]))
        assert max(statistics) <= 0.033  # the two-sample gate of test_stationarity

    def test_backward_walk_blocks_match_dieker_mikosch_in_law(self):
        # 33 points: proposals at late grid indices walk back through the
        # blocks of 1, 4 and 16 steps and then the rest
        grid = make_dyadic_grid(5)
        exact, _ = sample_br_exact(grid, StreamKey(2056), 10000)
        oracle = _dieker_mikosch(grid, StreamKey(2057), 10000)
        statistics = [two_sample_ks(exact[:, j], oracle[:, j]) for j in range(grid.size)]
        statistics.append(two_sample_ks(exact.max(axis=1), oracle.max(axis=1)))
        statistics.append(two_sample_ks(exact[:, 28] - exact[:, 4], oracle[:, 28] - oracle[:, 4]))
        assert max(statistics) <= 0.033

    def test_fine_grid_marginals_are_gumbel(self):
        # 257 points: a walk that resumed from the wrong point after the
        # 4-step block moved the t = 1 column by about 0.027 in KS
        grid = make_dyadic_grid(8)
        paths, _ = sample_br_exact(grid, StreamKey(2059), 5000)
        for t in (0.0, 0.5, 1.0):
            assert ks_statistic(paths[:, time_index(grid, t)], gumbel_cdf) <= 0.026, t

    def test_rejected_proposals_draw_few_normals(self, monkeypatch):
        # an eager walk draws the whole 257-point path for each of about 250
        # proposals per path, about 65,000 normals; the lazy walk about 1,000
        drawn = []

        class Counting:
            def __init__(self, rng):
                self._rng = rng

            def standard_normal(self, size):
                out = self._rng.standard_normal(size)
                drawn.append(out.size)
                return out

            def standard_exponential(self, size):
                return self._rng.standard_exponential(size)

        generator = StreamKey.generator
        monkeypatch.setattr(StreamKey, "generator", lambda key: Counting(generator(key)))
        paths, _ = sample_br_exact(make_dyadic_grid(8), StreamKey(2058), 1000)
        assert np.all(np.isfinite(paths))
        assert sum(drawn) < 2000 * 1000

    @pytest.mark.parametrize(
        "times",
        [[0.0, 1.0], make_dyadic_grid(3), [0.25, 0.75]],
        ids=["2pt", "k3", "interior"],
    )
    def test_spectral_functions_average_one_per_grid_point(self, times):
        # no endpoint padding: two interior times cost about two functions
        _, spectral = sample_br_exact(times, StreamKey(2055), 4000)
        error = spectral.std() / math.sqrt(spectral.size)
        assert abs(spectral.mean() - len(times)) <= 5.0 * error

    def test_rejects_times_outside_unit_interval(self):
        for times in ([0.5, 1.5], [0.5, 0.25], [-0.5, 0.5]):
            with pytest.raises(ValueError):
                sample_br_exact(times, StreamKey(1), 10)
