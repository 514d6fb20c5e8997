import math

import numpy as np
import pytest

from besselbr.numerics import QuadratureError, QuadratureSpec, StreamKey, integrate


class TestIntegrate:
    def test_unit_exponential(self):
        assert integrate(lambda y: math.exp(-y), 0.0, np.inf) == pytest.approx(1.0, abs=1e-10)

    def test_zero_function(self):
        assert integrate(lambda y: 0.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_bessel_k_integral(self):
        # int_0^inf exp(-y - 100/y) dy = 20 K_1(20); the reference is the
        # large-argument series of K_1 taken to four terms
        value = integrate(lambda y: math.exp(-y - 100.0 / y), 0.0, np.inf)
        z = 20.0
        series = 1.0 + 3 / (8 * z) - 15 / (2 * (8 * z) ** 2) + 315 / (6 * (8 * z) ** 3)
        reference = 20.0 * math.sqrt(math.pi / (2 * z)) * math.exp(-z) * series
        assert value == pytest.approx(reference, rel=1e-4)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    def test_gamma_normalisation(self, a):
        value = integrate(lambda x: x ** (a - 1) * math.exp(-x), 0.0, np.inf)
        assert value / math.gamma(a) == pytest.approx(1.0, abs=1e-9)

    def test_non_convergence_carries_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=1)
        with pytest.raises(QuadratureError) as err:
            integrate(lambda x: math.cos(50.0 * math.pi * x) ** 2, 0.0, 1.0, spec)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


class TestStreams:
    def test_determinism(self):
        key = StreamKey(987654321, replicate_index=3, substream_index=5)
        a = key.generator().standard_normal(1000)
        b = key.generator().standard_normal(1000)
        assert a.tobytes() == b.tobytes()

    def test_creation_order_is_irrelevant(self):
        keys = [StreamKey(11, replicate_index=r) for r in range(4)]
        first = [k.generator().standard_normal(10) for k in keys]
        second = [k.generator().standard_normal(10) for k in reversed(keys)][::-1]
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_distinct_triples_differ(self):
        base = StreamKey(5).generator().standard_normal(50)
        for other in (
            StreamKey(6),
            StreamKey(5, replicate_index=1),
            StreamKey(5, substream_index=1),
        ):
            assert not np.array_equal(base, other.generator().standard_normal(50))

    def test_moments_at_one_million(self):
        draws = StreamKey(2024).generator().standard_normal(10**6)
        assert abs(draws.mean()) <= 0.004
        assert abs(draws.var() - 1.0) <= 0.006

    def test_substream_independence(self):
        key = StreamKey(313)
        a = key.with_substream(0).generator().standard_normal(10**5)
        b = key.with_substream(1).generator().standard_normal(10**5)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) <= 0.01

    def test_key_validation(self):
        with pytest.raises(ValueError):
            StreamKey(-1)
        with pytest.raises(ValueError):
            StreamKey(2**64)
        with pytest.raises(ValueError):
            StreamKey(1.5)
