import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sc

from besselbr import rescale
from besselbr.numerics import StreamKey
from besselbr.paths import make_dyadic_grid, scalar_product_batch, squared_bessel_batch
from besselbr.rescale import (
    _discard_risk,
    bessel_constants,
    generic_constants,
    local_bessel_batch,
    local_bessel_split_batch,
    local_scalar_batch,
    normal_constants,
    pair_maxima,
    scalar_constants,
)
from besselbr.stats import ks_statistic, two_sample_ks
from besselbr.tails import chi_square_tail, scalar_product_tail_params

N_REPLICATES = 10**5
KS_1PCT = 0.006


class TestBesselConstants:
    def test_m2_collapses_to_two_log_n(self):
        for n in (2, 10, 10**4, 10**9):
            consts = bessel_constants(n, 2)
            assert consts.a == 2.0
            assert consts.b == pytest.approx(2.0 * math.log(n), abs=1e-12)

    def test_real_count_accepted(self):
        assert bessel_constants(math.e**2, 2).b == pytest.approx(4.0, abs=1e-12)

    def test_m4_value(self):
        # independent evaluation of the defining formula with the math module
        expected = 2 * math.log(1e4) + 2 * math.log(math.log(1e4)) - 2 * math.lgamma(2.0)
        consts = bessel_constants(10**4, 4)
        assert consts.b == pytest.approx(expected, abs=1e-12)
        assert consts.b == pytest.approx(22.86133435668806, abs=1e-9)

    def test_log_gamma_anchor_values(self):
        # ln Gamma(1/2) = ln(pi)/2, ln Gamma(1) = 0, ln Gamma(3) = ln 2
        log_n, log_log_n = math.log(1e3), math.log(math.log(1e3))
        assert bessel_constants(10**3, 1).b == pytest.approx(
            2 * log_n - log_log_n - math.log(math.pi), abs=1e-12
        )
        assert bessel_constants(10**3, 2).b == pytest.approx(2 * log_n, abs=1e-12)
        assert bessel_constants(10**3, 6).b == pytest.approx(
            2 * log_n + 4 * log_log_n - 2 * math.log(2.0), abs=1e-12
        )

    def test_log_gamma_agrees_with_math_lgamma(self):
        log_n, log_log_n = math.log(100.0), math.log(math.log(100.0))
        for m in range(1, 401, 7):
            expected = 2 * log_n + (m - 2) * log_log_n - 2 * math.lgamma(m / 2)
            assert bessel_constants(100, m).b == pytest.approx(expected, abs=1e-12)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            bessel_constants(1, 2)

    def test_b_increasing_in_n(self):
        for m in (1, 2, 3, 5):
            bs = [bessel_constants(n, m).b for n in (3, 5, 10, 10**2, 10**4, 10**8)]
            assert all(y > x for x, y in zip(bs, bs[1:]))


class TestScalarConstants:
    def test_m2_gives_exact_laplace_intensity(self):
        # n * P(Laplace > s + b) must be exp(-s) exactly; this identity pins
        # the centering constant, including its ln 2 term
        for n in (2, 10, 10**4):
            b = scalar_constants(n, 2).b
            for s in (-0.5, 0.0, 1.0, 3.0):
                assert n * 0.5 * math.exp(-(s + b)) == pytest.approx(math.exp(-s), abs=1e-12)

    def test_m2_closed_form(self):
        for n in (2, 100, 10**6):
            assert scalar_constants(n, 2).b == pytest.approx(
                math.log(n) - math.log(2.0), abs=1e-12
            )

    def test_matches_generic_from_product_tail(self):
        for m in range(1, 7):
            K, c, beta = scalar_product_tail_params(m)
            for n in (10**2, 10**6):
                expected = generic_constants(K, c, beta, n)
                got = scalar_constants(n, m)
                assert got.a == pytest.approx(expected.a, abs=1e-12)
                assert got.b == pytest.approx(expected.b, abs=1e-12)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            scalar_constants(1.5, 2)


class TestGenericConstants:
    def test_unit_parameters(self):
        consts = generic_constants(1.0, 1.0, 0.0, 50)
        assert consts.a == 1.0
        assert consts.b == pytest.approx(math.log(50), abs=1e-14)

    def test_scaled_rate(self):
        consts = generic_constants(1.0, 2.0, 0.0, math.e**2)
        assert consts.a == pytest.approx(0.5, abs=1e-14)
        assert consts.b == pytest.approx(1.0, abs=1e-12)

    def test_reproduces_bessel_from_chi_square_tail(self):
        from besselbr.tails import chi_square_tail_params

        for m in (1, 2, 3, 4):
            K, c, beta = chi_square_tail_params(m)
            for n in (10**2, 10**6):
                expected = generic_constants(K, c, beta, n)
                got = bessel_constants(n, m)
                assert got.a == pytest.approx(expected.a, abs=1e-12)
                assert got.b == pytest.approx(expected.b, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generic_constants(0.0, 1.0, 0.0, 10)
        with pytest.raises(ValueError):
            generic_constants(1.0, -2.0, 0.0, 10)


class TestNormalConstants:
    @pytest.mark.parametrize("n", [2, 10, 1000, 10**6, 10**12, math.e**2])
    def test_classical_formula_byte_for_byte(self, n):
        s = math.sqrt(2.0 * math.log(n))
        b = s - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * s)
        consts = normal_constants(n)
        assert consts.a == 1.0 / s
        assert consts.b == b

    @pytest.mark.parametrize("n", [1, 1.5, 0, -3, math.nan])
    def test_count_validation(self, n):
        with pytest.raises(ValueError):
            normal_constants(n)


class TestExactIntensityIdentity:
    def test_chi_square_m2(self):
        # n * P(chi2_2 > 2s + b_n) = exp(-s), machine-exact for every n
        for n in (2, 10, 10**3, 10**6):
            b = bessel_constants(n, 2).b
            for s in (-1.0, 0.0, 3.0, 10.0):
                if 2 * s + b < 0:
                    continue
                value = n * chi_square_tail(2, 2.0 * s + b)
                assert value == pytest.approx(math.exp(-s), abs=1e-12)


class TestLocalTimes:
    # the rescaled batches are the base batches on the window 1 + t/b
    # (1 + t/(2b) for the scalar family), drawn from the same stream
    def test_bessel_window(self):
        ts = np.linspace(0.0, 1.0, 11)
        n, m, key = 10**4, 3, StreamKey(12, replicate_index=4)
        b = bessel_constants(n, m).b
        phys = 1.0 + ts / b
        expected = (squared_bessel_batch(phys, m, key, 50) - b * phys) / 2.0
        assert local_bessel_batch(ts, n, m, key, 50).tobytes() == expected.tobytes()

    def test_scalar_window(self):
        ts = np.linspace(0.0, 1.0, 11)
        n, m, key = 10**4, 3, StreamKey(13, replicate_index=4)
        b = scalar_constants(n, m).b
        phys = 1.0 + ts / (2.0 * b)
        expected = scalar_product_batch(phys, m, key, 50) - b * phys
        assert local_scalar_batch(ts, n, m, key, 50).tobytes() == expected.tobytes()


class TestLocalBessel:
    def test_marginal_at_zero_is_chi_square(self):
        n, m = 10**4, 2
        values = local_bessel_batch(np.array([0.0]), n, m, StreamKey(606), N_REPLICATES)[:, 0]
        recovered = 2.0 * values + bessel_constants(n, m).b
        ks = ks_statistic(recovered, lambda x: 1.0 - np.exp(-x / 2.0))
        assert ks <= KS_1PCT

    def test_determinism(self):
        ts = make_dyadic_grid(3)
        key = StreamKey(31, replicate_index=2)
        a = local_bessel_batch(ts, 1000, 2, key, 8)
        b = local_bessel_batch(ts, 1000, 2, key, 8)
        assert a.tobytes() == b.tobytes()


class TestLocalScalar:
    def test_marginal_at_zero_is_laplace(self):
        n, m = 10**4, 2
        values = local_scalar_batch(np.array([0.0]), n, m, StreamKey(707), N_REPLICATES)[:, 0]
        recovered = values + scalar_constants(n, m).b
        cdf = lambda x: np.where(x >= 0, 1.0 - 0.5 * np.exp(-x), 0.5 * np.exp(np.minimum(x, 0)))
        assert ks_statistic(recovered, cdf) <= KS_1PCT

    def test_determinism(self):
        ts = make_dyadic_grid(2)
        key = StreamKey(41)
        a = local_scalar_batch(ts, 500, 2, key, 8)
        b = local_scalar_batch(ts, 500, 2, key, 8)
        assert a.tobytes() == b.tobytes()


class TestDecompositionIdentity:
    def test_direct_and_split_samplers_agree_in_law(self):
        # quick version of the full cross-check (the acceptance suite runs it
        # at 1e5 replicates); two-sample 1% critical at 3e4 is ~0.0133
        ts = np.array([0.5, 1.0])
        direct = local_bessel_batch(ts, 10**4, 2, StreamKey(808), 3 * 10**4)
        split = local_bessel_split_batch(ts, 10**4, 2, StreamKey(809), 3 * 10**4)
        for j in range(2):
            ks = two_sample_ks(direct[:, j], split[:, j])
            assert ks <= 0.014


def brute_pair_maxima(process, ts, n, m, key, count, chunk=500):
    # the oracle: maxima over all n copies of the direct rescaled batches
    batch = local_bessel_batch if process == "bessel" else local_scalar_batch
    blocks = []
    for c in range(-(-count // chunk)):
        rows = min(count, (c + 1) * chunk) - c * chunk
        values = batch(ts, n, m, key.with_replicate(c), rows * n)
        blocks.append(values.reshape(rows, n, ts.size).max(axis=1))
    return np.concatenate(blocks)


def law_distances(fast, brute):
    # two-sample KS on both columns, the pair maximum and the pair minimum
    columns = [two_sample_ks(fast[:, j], brute[:, j]) for j in range(fast.shape[1])]
    return columns + [
        two_sample_ks(fast.max(axis=1), brute.max(axis=1)),
        two_sample_ks(fast.min(axis=1), brute.min(axis=1)),
    ]


def discarded_copies_risk(q, surv, running, rest, c, m, ts):
    # the quantity pair_maxima's stop bounds, by quadrature: the union bound
    # P(|W(t)| > rho_t) of the first discarded copy plus that of the ``rest``
    # later copies, whose levels are i.i.d. chi-square(m) below q
    def risk(x):
        rho = math.sqrt(c) * (np.sqrt(2.0 * running + c + ts) - math.sqrt(x))
        with np.errstate(divide="ignore"):  # at t = 0 a positive rho leaves no risk
            return float(sc.gammaincc(m / 2.0, rho**2 / (2.0 * ts)).sum())

    def density(x):
        log_density = (m / 2 - 1) * math.log(x) - x / 2 - (m / 2) * math.log(2) - sc.gammaln(m / 2)
        return math.exp(log_density)

    below = integrate.quad(lambda x: risk(x) * density(x), 0.0, q, limit=200, points=[0.9 * q])[0]
    return risk(q) + rest / (1.0 - surv) * below


class TestPairMaxima:
    # 0.033 is the repository's 5,000-row two-sample gate
    @pytest.mark.parametrize("ts", [(0.0, 1.0), (0.25, 0.75)], ids=["0-1", "interior"])
    @pytest.mark.parametrize(
        "process,m", [("bessel", 2), ("bessel", 3), ("scalar", 2), ("scalar", 3)]
    )
    def test_matches_brute_force_in_law(self, process, m, ts):
        ts = np.array(ts)
        fast, copies = pair_maxima(process, ts, 1000, m, StreamKey(4100), 5000)
        brute = brute_pair_maxima(process, ts, 1000, m, StreamKey(4101), 5000)
        assert max(law_distances(fast, brute)) <= 0.033
        assert copies.mean() < 250  # the stop fires well before n

    @pytest.mark.parametrize("n", [2, 5])
    def test_small_n_keeps_the_law_and_never_passes_n(self, n):
        ts = np.array([0.0, 1.0])
        fast, copies = pair_maxima("bessel", ts, n, 2, StreamKey(4200), 5000)
        assert copies.min() >= 1 and copies.max() == n
        brute = brute_pair_maxima("bessel", ts, n, 2, StreamKey(4201), 5000)
        assert max(law_distances(fast, brute)) <= 0.033

    def test_time_zero_column_is_exact_for_bessel(self):
        # the first copy has the top level, so max_k (S_k - b)/2 is drawn exactly
        n, m = 10**4, 3
        fast, _ = pair_maxima("bessel", np.array([0.0, 1.0]), n, m, StreamKey(4300), 5000)
        b = bessel_constants(n, m).b
        cdf = lambda x: np.exp(n * np.log1p(-sc.gammaincc(m / 2.0, (2.0 * x + b) / 2.0)))
        assert ks_statistic(fast[:, 0], cdf) <= 0.026

    def test_time_zero_column_is_laplace_maximum_for_scalar(self):
        n = 10**4
        b = scalar_constants(n, 2).b
        cdf = lambda x: np.exp(n * np.log1p(-0.5 * np.exp(-(x + b))))
        for ts in ([0.0, 1.0], [0.0]):
            fast, _ = pair_maxima("scalar", np.array(ts), n, 2, StreamKey(4301), 5000)
            assert ks_statistic(fast[:, 0], cdf) <= 0.026, ts

    @pytest.mark.parametrize("n", [2, 1000], ids=["b-negative", "n-1000"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_time_zero_alone_is_the_normalised_scalar_maximum(self, m, n):
        # brute force: X sqrt(S) with S ~ chi-square(m) has the law of an
        # m-term product sum, and at n = 2 the centering b is negative.
        # 0.0163 is the 1% two-sample KS critical value at 20,000 rows a side.
        rows, block = 20000, 500
        fast, copies = pair_maxima("scalar", np.array([0.0]), n, m, StreamKey(4600 + m, n), rows)
        rng = StreamKey(4700 + m, n).generator()
        brute = np.concatenate([
            (rng.standard_normal((block, n)) * np.sqrt(rng.chisquare(m, (block, n)))).max(axis=1)
            for _ in range(rows // block)
        ])
        assert copies.min() >= 1 and copies.max() <= n
        assert two_sample_ks(fast[:, 0], brute - scalar_constants(n, m).b) <= 0.0163

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stop_bound_covers_the_discarded_copies(self, m):
        c = bessel_constants(10**4, m).b
        layouts = (
            ([1.0], [0.0]),
            ([0.25, 0.75], [0.0, 0.0]),
            ([0.25, 0.75], [0.8, 0.0]),
            ([0.0], [0.0]),
        )
        for floor in (-1.0, 1.5):
            for ts, above in layouts:
                ts, running = np.array(ts), floor + np.array(above)
                for gap in (3.0, 4.0):
                    q = 2.0 * (floor - gap) + c
                    surv = float(sc.gammaincc(m / 2.0, q / 2.0))
                    args = (q, surv, running, 10**4 - 40, c, m, ts)
                    bound = float(_discard_risk(np.asarray(q), np.asarray(surv), *args[2:]))
                    assert discarded_copies_risk(*args) <= bound < np.inf, (floor, above, gap)

    @pytest.mark.parametrize("process,most", [("bessel", 55), ("scalar", 100)])
    def test_first_blocks_draw_few_copies(self, monkeypatch, process, most):
        # every drawn copy passes through the stop rule once
        drawn = []
        risk = rescale._discard_risk

        def counting(q, *args):
            drawn.append(q.size)
            return risk(q, *args)

        monkeypatch.setattr(rescale, "_discard_risk", counting)
        rows = 2000
        _, copies = pair_maxima(process, np.array([0.0, 1.0]), 10**4, 2, StreamKey(4500), rows)
        assert copies.mean() <= sum(drawn) / rows < most

    def test_same_key_same_bytes(self):
        ts = np.array([0.25, 0.75])
        a = pair_maxima("scalar", ts, 10**4, 3, StreamKey(4400, 2), 150)
        b = pair_maxima("scalar", ts, 10**4, 3, StreamKey(4400, 2), 150)
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    def test_validation(self):
        ts = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            pair_maxima("bm", ts, 100, 2, StreamKey(1), 10)
        with pytest.raises(ValueError):
            pair_maxima("bessel", np.array([0.5, 1.5]), 100, 2, StreamKey(1), 10)
        # the single time 0 reads no local clock, so it needs no positive b
        fast, copies = pair_maxima("scalar", np.array([0.0]), 2, 2, StreamKey(1), 10)
        assert fast.shape == (10, 1) and copies.max() <= 2
        with pytest.raises(ValueError):  # b = 0: the local clock 1 + t/(2b) is undefined
            pair_maxima("scalar", ts, 2, 2, StreamKey(1), 10)


class TestChiSquareClosedForms:
    # upper-tail probabilities from 1e-300 to 1 - 1e-12, and their -log
    Q = np.concatenate(
        (np.logspace(-300, -1, 3000), np.linspace(0.1, 0.9, 801), 1 - np.logspace(-1, -12, 1000))
    )
    X = np.concatenate(([0.0], -np.log(Q)))

    @staticmethod
    def ulps(ours, theirs):
        return np.abs(ours - theirs) / np.spacing(np.abs(theirs))

    def test_m2_level_is_minus_two_log(self):
        # against extended precision where the platform has it; scipy's
        # iterative inverse is itself up to 28 ulp off as q -> 1
        ours = rescale._chi2_level(2, self.Q)
        exact = -2.0 * np.log(self.Q.astype(np.longdouble))
        assert self.ulps(ours, exact.astype(float)).max() <= 4
        assert self.ulps(ours, 2.0 * sc.gammainccinv(1.0, self.Q)).max() <= 32

    def test_m2_tail_is_exponential(self):
        # scipy's gammaincc(1, x) drifts by up to about 4.5 (1 + x) ulp from
        # the correctly rounded e^-x, the condition number of exp
        ours = rescale._chi2_tail(2, self.X)
        exact = np.exp(-self.X.astype(np.longdouble))
        assert self.ulps(ours, exact.astype(float)).max() <= 4
        assert np.all(self.ulps(ours, sc.gammaincc(1.0, self.X)) <= 8.0 * (1.0 + self.X))

    def test_m2_level_at_zero_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert rescale._chi2_level(2, np.array([0.0]))[0] == np.inf
            assert rescale._chi2_level(2, 0.0) == np.inf

    @pytest.mark.parametrize("m", [1, 3])
    def test_other_m_are_scipys_bit_for_bit(self, m):
        level = 2.0 * sc.gammainccinv(m / 2.0, self.Q)
        assert rescale._chi2_level(m, self.Q).tobytes() == level.tobytes()
        assert rescale._chi2_tail(m, self.X).tobytes() == sc.gammaincc(m / 2.0, self.X).tobytes()


@pytest.mark.parametrize(
    "ts", [(0.0, 1.0), (0.25, 0.75), (0.0, 0.5, 1.0)], ids=["0-1", "interior", "grid"]
)
@pytest.mark.parametrize("process", ["bessel", "scalar"])
def test_closed_forms_leave_every_stop_decision(monkeypatch, process, ts):
    # the m = 2 closed forms move levels and bounds by ulps only, so every
    # row keeps its copy count and its maxima move by far less than 1e-12
    ts = np.array(ts)
    keys = [StreamKey(4900, j) for j in range(6)]
    fast = [pair_maxima(process, ts, 10**4, 2, key, 500) for key in keys]
    monkeypatch.setattr(rescale, "_chi2_level", lambda m, q: 2.0 * sc.gammainccinv(m / 2.0, q))
    monkeypatch.setattr(rescale, "_chi2_tail", lambda m, x: sc.gammaincc(m / 2.0, x))
    for (maxima, copies), key in zip(fast, keys):
        generic, generic_copies = pair_maxima(process, ts, 10**4, 2, key, 500)
        np.testing.assert_array_equal(copies, generic_copies)
        np.testing.assert_allclose(maxima, generic, rtol=0, atol=1e-12)


# pair_maxima at times (0, 1), n = 10^4 and StreamKey(4800), 500 rows:
# copies.sum(), the sha256 of copies.tobytes() and maxima.sum(axis=0)
STREAM_LAYOUT = {
    ("bessel", 2): (13768, "5e9c512419d074d341286fc6d39df11943d42d5be9d69b0c9b9bdbac777b7496",
                    (252.2280640394543, 273.63645648116216)),
    ("bessel", 3): (15651, "21fe2f257ee11c9ec630065dbf263943ef40a2d34f8838cb843ab00209402f11",
                    (318.4001392314816, 348.65189572538156)),
    ("scalar", 2): (31229, "770ae53c887f7826b4ed70d1ed197a26d04209a37d588286e1a21300ae3c358c",
                    (255.60305326606948, 262.8510579473174)),
    ("scalar", 3): (45564, "8ee44d84c437d04e271a9a981af0b54294058a8025c9997c5d5f506d8da685ad",
                    (322.20174012890976, 345.7941968859718)),
}


@pytest.mark.parametrize("process,m", sorted(STREAM_LAYOUT))
def test_stream_layout_is_pinned(process, m):
    # a change to the order or number of draws moves these; a change to the
    # arithmetic of the levels alone moves at most the last digits of the sums
    total, digest, sums = STREAM_LAYOUT[process, m]
    maxima, copies = pair_maxima(process, np.array([0.0, 1.0]), 10**4, m, StreamKey(4800), 500)
    assert int(copies.sum()) == total
    assert hashlib.sha256(copies.tobytes()).hexdigest() == digest
    np.testing.assert_allclose(maxima.sum(axis=0), sums, rtol=1e-12)
