"""Unit tests for the stream-keyed random sources and stable samplers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from harmstable import (
    ParameterError,
    RngStream,
    SingularityError,
    poisson_arrivals,
    sample_isotropic_stable,
)
from oracles import sample_sas


def ecf_cos(x: np.ndarray, t: float) -> float:
    """Real part of the empirical characteristic function at frequency t."""
    return float(np.mean(np.cos(t * x)))


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(123, 7).generator.uniform(size=16)
        b = RngStream(123, 7).generator.uniform(size=16)
        np.testing.assert_array_equal(a, b)

    def test_different_index_different_draws(self):
        a = RngStream(123, 0).generator.uniform(size=16)
        b = RngStream(123, 1).generator.uniform(size=16)
        assert not np.array_equal(a, b)

    def test_rejects_negative_keys(self):
        with pytest.raises(ParameterError):
            RngStream(-1, 0)
        with pytest.raises(ParameterError):
            RngStream(0, -2)


class TestSampleSas:
    def test_scalar_and_array_shapes(self):
        r = RngStream(1, 0)
        assert isinstance(sample_sas(1.2, 1.0, r), float)
        assert sample_sas(1.2, 1.0, RngStream(1, 1), size=(3, 4)).shape == (3, 4)

    def test_gaussian_endpoint(self):
        # alpha = 2 with scale sigma is normal with standard deviation
        # sigma * sqrt(2) under the exp(-sigma^alpha |t|^alpha) convention
        x = sample_sas(2.0, 0.7, RngStream(2024, 0), size=20000)
        res = stats.kstest(x, stats.norm(scale=0.7 * np.sqrt(2.0)).cdf)
        assert res.pvalue > 0.01

    def test_cauchy_case(self):
        x = sample_sas(1.0, 1.3, RngStream(2024, 1), size=20000)
        res = stats.kstest(x, stats.cauchy(scale=1.3).cdf)
        assert res.pvalue > 0.01

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 1.7])
    def test_characteristic_function(self, alpha):
        scale = 0.9
        x = sample_sas(alpha, scale, RngStream(2024, 2), size=200000)
        for t in (0.5, 1.0, 2.0):
            target = np.exp(-((scale * t) ** alpha))
            assert ecf_cos(x, t) == pytest.approx(target, abs=0.01)
            # symmetry: the sine part vanishes
            assert abs(np.mean(np.sin(t * x))) < 0.01

    def test_zero_scale(self):
        assert sample_sas(1.2, 0.0, RngStream(5, 0)) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            sample_sas(0.0, 1.0, RngStream(5, 0))
        with pytest.raises(ParameterError):
            sample_sas(2.5, 1.0, RngStream(5, 0))
        with pytest.raises(ParameterError):
            sample_sas(1.2, -1.0, RngStream(5, 0))


class TestSampleIsotropicStable:
    def test_array_shape(self):
        arr = sample_isotropic_stable(1.2, 1.0, RngStream(3, 1), size=8)
        assert arr.shape == (8,) and arr.dtype == complex

    def test_real_part_matches_scalar_law(self):
        # the real part must satisfy the same characteristic function as
        # sample_sas at equal scale, closing the loop between samplers
        alpha, scale = 1.2, 0.8
        z = sample_isotropic_stable(alpha, scale, RngStream(2025, 0), size=200000)
        for t in (0.5, 1.0, 2.0):
            target = np.exp(-((scale * t) ** alpha))
            assert ecf_cos(z.real, t) == pytest.approx(target, abs=0.01)

    def test_rotation_invariance(self):
        z = sample_isotropic_stable(1.5, 1.0, RngStream(2025, 1), size=200000)
        w = z * np.exp(0.7j)
        for t in (0.5, 1.5):
            assert ecf_cos(w.real, t) == pytest.approx(ecf_cos(z.real, t), abs=0.01)

    def test_gaussian_endpoint(self):
        z = sample_isotropic_stable(2.0, 0.5, RngStream(2025, 2), size=20000)
        res = stats.kstest(z.real, stats.norm(scale=0.5 * np.sqrt(2.0)).cdf)
        assert res.pvalue > 0.01
        res = stats.kstest(z.imag, stats.norm(scale=0.5 * np.sqrt(2.0)).cdf)
        assert res.pvalue > 0.01

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60)
    @given(alpha=st.floats(0.001, 2.0), stream=st.integers(0, 2**16))
    @example(alpha=0.001, stream=0)  # the amplitude overflows
    @example(alpha=2.0, stream=0)
    def test_draws_are_finite_or_raise(self, alpha, stream):
        try:
            z = sample_isotropic_stable(alpha, 1.0, RngStream(71, stream), size=200)
        except SingularityError as exc:
            assert "non-finite" in str(exc)
        else:
            assert np.all(np.isfinite(z))

    def test_heavy_tail_exponent(self):
        # P(|Z| > x) ~ C x^{-alpha}: the log survival curve of the top decile
        # should have slope close to -alpha
        alpha = 1.2
        z = sample_isotropic_stable(alpha, 1.0, RngStream(2025, 3), size=400000)
        r = np.sort(np.abs(z))
        tail = r[-40000:]
        p = 1.0 - (np.arange(len(r) - 40000, len(r)) + 0.5) / len(r)
        slope = np.polyfit(np.log(tail), np.log(p), 1)[0]
        assert slope == pytest.approx(-alpha, abs=0.1)


class TestPoissonArrivals:
    def test_strictly_increasing_and_positive(self):
        t = poisson_arrivals(5000, RngStream(7, 0))
        assert t[0] > 0.0
        assert np.all(np.diff(t) > 0.0)

    def test_unit_rate(self):
        t = poisson_arrivals(100000, RngStream(7, 1))
        assert t[-1] / len(t) == pytest.approx(1.0, abs=0.02)

    def test_reproducible(self):
        a = poisson_arrivals(100, RngStream(7, 2))
        b = poisson_arrivals(100, RngStream(7, 2))
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ParameterError):
            poisson_arrivals(0, RngStream(7, 0))
