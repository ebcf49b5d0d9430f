"""Unit tests for the deterministic kernels."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from harmstable import (
    ModelParams,
    ParameterError,
    RngStream,
    SingularityError,
    build_jump_measure,
    double_integrate,
    kernel_gn,
    kernel_h,
    kernel_hn,
    kernel_r,
    nearest_2pi,
    psi,
)
from oracles import gn_bound, phi_qv

P = ModelParams(alpha=1.2, hurst=0.75)


class TestModelParams:
    def test_gamma(self):
        assert ModelParams(1.2, 0.75).gamma == pytest.approx(1.0 - 0.75 - 1.0 / 1.2)

    def test_clt_regime(self):
        assert ModelParams(1.2, 0.75).clt_regime
        assert not ModelParams(1.8, 0.55).clt_regime
        assert not ModelParams(1.2, 0.4).clt_regime

    @pytest.mark.parametrize("alpha,hurst", [(0.0, 0.5), (2.0, 0.5), (-1.0, 0.5),
                                             (1.2, 0.0), (1.2, 1.0), (1.2, 1.5)])
    def test_rejects_out_of_range(self, alpha, hurst):
        with pytest.raises(ParameterError):
            ModelParams(alpha, hurst)


def r_oracle(s: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """r(s) = exp(-is/2) sin(s/2)/(s/2) |s|^gamma in extended precision, from
    the exact half angle s/2."""
    half = s.astype(np.longdouble) / 2
    mod = np.sin(half) / half * np.abs(2 * half) ** np.longdouble(gamma)
    return np.cos(half) * mod, -np.sin(half) * mod  # real and imaginary parts


def _ulps_from(x: float, d: int) -> float:
    for _ in range(abs(d)):
        x = float(np.nextafter(x, math.inf if d > 0 else 0.0))
    return x


# |s| log-uniform over [1e-300, 1e6], or within 4 ulps of a multiple of
# 2 pi up to 1e6, where sin(s/2) cancels
MAGNITUDES = st.one_of(
    st.floats(-300.0, 6.0).map(lambda e: 10.0**e),
    st.builds(lambda k, d: _ulps_from(2.0 * math.pi * k, d),
              st.integers(1, 159_154), st.integers(-4, 4)),
)


ODD_PI_POINTS = [
    _ulps_from(math.pi * (2 * k + 1), d)
    for k in (0, 1, 5, 1_000, 159_154)
    for d in (-4, -1, 0, 1, 4)
] + [_ulps_from(1e6, d) for d in (-1, 0, 1)]


# every kernel of the module, and the phi_qv oracle, at one scalar point,
# below the diagonal for the pair kernels
SCALAR_CALLS = {
    "kernel_r": lambda: kernel_r(1.0, P),
    "kernel_gn": lambda: kernel_gn(1.0, 8),
    "kernel_hn": lambda: kernel_hn(1.0, 0.5, 8, P),
    "kernel_h": lambda: kernel_h(1.0, 0.5, P),
    "phi_qv": lambda: phi_qv(1.0, P),
    "psi": lambda: psi(2.0, 1.2),
    "nearest_2pi": lambda: nearest_2pi(7.0),
}


@pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
def test_scalar_input_gives_numpy_scalar(name):
    value = SCALAR_CALLS[name]()
    assert isinstance(value, np.generic)
    assert not isinstance(value, np.ndarray)


class TestKernelR:
    def test_matches_direct_formula_away_from_zero(self, rng):
        s = rng.uniform(0.05, 40.0, size=500) * rng.choice([-1.0, 1.0], size=500)
        direct = (1.0 - np.exp(-1j * s)) / (1j * s) * np.abs(s) ** P.gamma
        np.testing.assert_allclose(kernel_r(s, P), direct, rtol=1e-13, atol=0)

    def test_stable_near_zero(self):
        # prefactor tends to 1, so r(s) ~ |s|^gamma with no cancellation noise
        s = 1e-8
        val = kernel_r(s, P)
        assert abs(val / abs(s) ** P.gamma - 1.0) < 1e-7

    def test_zero_raises_for_negative_gamma(self):
        with pytest.raises(SingularityError):
            kernel_r(0.0, P)

    def test_zero_returns_zero_for_positive_gamma(self):
        p = ModelParams(alpha=1.8, hurst=0.2)  # gamma = 0.244...
        assert p.gamma > 0
        assert kernel_r(0.0, p) == 0.0
        arr = kernel_r(np.array([0.0, 1.0]), p)
        assert arr[0] == 0.0 and arr[1] != 0.0

    def test_scalar_in_scalar_out(self):
        assert np.isscalar(kernel_r(1.0, P)) or kernel_r(1.0, P).ndim == 0

    @settings(max_examples=200)
    @given(
        mags=st.lists(MAGNITUDES, min_size=20, max_size=60),
        signs=st.lists(st.booleans(), min_size=60, max_size=60),
        alpha=st.floats(0.1, 1.99),
        hurst=st.floats(0.02, 0.98),
    )
    @example(mags=[1e-300, 1.0, 2.0 * math.pi, 1e6], signs=[True] * 60, alpha=1.99, hurst=0.02)
    @example(mags=[1e-300, 1.0, 2.0 * math.pi, 1e6], signs=[False] * 60, alpha=0.1, hurst=0.98)
    # next to s = (2k + 1) pi, where cos(s/2) = 0 and the tangent of s/4 is
    # +-1, so 1 - t^2 cancels, up to |s| = 1e6 (k = 159,154)
    @example(mags=ODD_PI_POINTS, signs=[True] * 60, alpha=1.2, hurst=0.75)
    @example(mags=ODD_PI_POINTS, signs=[False] * 60, alpha=0.1, hurst=0.98)
    def test_matches_extended_precision(self, mags, signs, alpha, hurst):
        p = ModelParams(alpha, hurst)
        s = np.array(mags) * np.where(signs[: len(mags)], 1.0, -1.0)
        with np.errstate(over="ignore"):
            s = s[np.isfinite(np.abs(s) ** p.gamma)]
        re, im = r_oracle(s, p.gamma)
        r = kernel_r(s, p)
        err = np.hypot(r.real - re, r.imag - im) / np.hypot(re, im)
        assert np.all(err <= 1e-14)


class TestPhi:
    def test_frozen_value(self):
        # s = pi, alpha = 1, hurst = 1/2: exponent is -3 and 1 - cos(pi) = 2
        p = ModelParams(alpha=1.0, hurst=0.5)
        assert phi_qv(math.pi, p) == pytest.approx(2.0 / math.pi**3, rel=1e-14)

    def test_twice_phi_equals_r_squared(self, rng):
        s = rng.uniform(1e-6, 60.0, size=2000) * rng.choice([-1.0, 1.0], size=2000)
        lhs = 2.0 * phi_qv(s, P)
        rhs = np.abs(kernel_r(s, P)) ** 2
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=0)

    def test_zero_always_raises(self):
        with pytest.raises(SingularityError):
            phi_qv(0.0, P)
        with pytest.raises(SingularityError):
            phi_qv(np.array([1.0, 0.0]), ModelParams(1.8, 0.2))


def worst_rel_error_above_zeros(n: int, k: np.ndarray) -> float:
    """Worst relative error of |kernel_gn| one ulp above each 2 pi k/n; for n
    a power of two n x/2 is exact, so sin(n x/2)/sin(x/2) in long double at
    the same x is the reference."""
    x = np.nextafter(2.0 * math.pi * k / n, np.inf)
    xl = x.astype(np.longdouble)
    want = np.abs(np.sin(0.5 * n * xl) / np.sin(0.5 * xl))
    got = np.abs(kernel_gn(x, n)).astype(np.longdouble)
    return float(np.max(np.abs(got / want - 1.0)))


def worst_rel_error_of_value(n: int, x: np.ndarray) -> float:
    """Worst relative error of the complex kernel_gn(x, n), phase included,
    against e^{i(n-1)x/2} sin(nx/2)/sin(x/2) in long double at the same x;
    for n a power of two up to 2^11, nx/2 and (n-1)x/2 are exact there."""
    xl = x.astype(np.longdouble)
    ratio = np.sin(0.5 * n * xl) / np.sin(0.5 * xl)
    phase = 0.5 * (n - 1) * xl
    got = kernel_gn(x, n)
    err = np.hypot(got.real - np.cos(phase) * ratio, got.imag - np.sin(phase) * ratio)
    return float(np.max(err / np.abs(ratio)))


class TestKernelGn:
    def test_matches_direct_geometric_sum(self, rng):
        for n in (1, 2, 7, 64, 513):
            x = rng.uniform(-30.0, 30.0, size=200)
            direct = np.exp(1j * np.outer(np.arange(n), x)).sum(axis=0)
            np.testing.assert_allclose(kernel_gn(x, n), direct, rtol=0,
                                       atol=1e-10 * n)

    def test_removable_limit_at_2pi_multiples(self):
        for n in (1, 5, 128):
            for k in (-2, -1, 0, 1, 3):
                assert kernel_gn(2.0 * math.pi * k, n) == pytest.approx(n, rel=1e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("n", [64, 1024, 16384])
    def test_relative_accuracy_next_to_zeros(self, n):
        # one ulp above each zero 2 pi k/n in (-pi, pi), that is above every
        # zero of the 2 pi-periodic |g_n|
        assert worst_rel_error_above_zeros(n, np.arange(1 - n // 2, n // 2)) <= 1e-14

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("n", [64, 1024, 16384])
    def test_relative_accuracy_next_to_zeros_past_pi(self, n):
        # the same, one and two periods out, x in [pi, 4 pi): the reduction
        # by the double 2 pi must carry the part of 2 pi it drops
        k = np.arange(n // 2, 2 * n)
        assert worst_rel_error_above_zeros(n, k[k != n]) <= 1e-14

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("n", [64, 1024])
    def test_complex_value_matches_extended_precision(self, n, rng):
        # one ulp above each zero in [-pi, 4 pi) and uniform x in (-4 pi, 4 pi):
        # the phase takes the first-order correction of the reduction too, so
        # the value keeps the ratio's accuracy past pi; measured at most
        # 9.3e-16 at both n over seeds 1-7 [2.5e-13 at n = 1024 with the
        # phase from the uncorrected y, 3.6e-13 from exp(i(n-1)y/2)]
        k = np.arange(1 - n // 2, 2 * n)
        x = np.concatenate([
            np.nextafter(2.0 * math.pi * k[k != n] / n, np.inf),
            rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 10_000),
        ])
        assert worst_rel_error_of_value(n, x) <= 2e-15

    def test_bound_holds(self, rng):
        x = rng.uniform(-50.0, 50.0, size=10000)
        for n in (3, 17, 256):
            assert np.all(np.abs(kernel_gn(x, n)) <= gn_bound(x, n) * (1.0 + 1e-10))

    def test_bound_at_lattice_is_n(self):
        assert gn_bound(0.0, 12) == 12.0
        assert gn_bound(2.0 * math.pi, 12) == pytest.approx(12.0)

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            kernel_gn(1.0, 0)
        with pytest.raises(ParameterError):
            gn_bound(1.0, -3)


class TestDoubleKernels:
    def test_lower_triangular_support(self, rng):
        s = rng.uniform(-10.0, 10.0, size=300)
        u = s + rng.uniform(0.0, 5.0, size=300)  # u >= s
        assert np.all(kernel_hn(s, u, 16, P) == 0.0)
        assert np.all(kernel_h(s, u, P) == 0.0)

    @pytest.mark.parametrize(
        "kernel",
        [lambda s, u: kernel_h(s, u, P), lambda s, u: kernel_hn(s, u, 16, P)],
        ids=["kernel_h", "kernel_hn"],
    )
    def test_scalar_s_broadcasts_against_straddling_u(self, kernel):
        s = 1.5
        u = np.array([-2.0, 0.7, 1.5, 1.5 + 1e-12, 3.0])
        got = kernel(s, u)
        assert got.shape == u.shape
        assert np.all(got[u >= s] == 0.0)
        below = u < s
        assert np.all(got[below] != 0.0)
        want = [complex(kernel(s, uk)) for uk in u[below]]
        np.testing.assert_allclose(got[below], want, rtol=1e-14)
        # on the diagonal a scalar pair is a numpy scalar 0
        on_diagonal = kernel(s, s)
        assert on_diagonal == 0.0 and np.ndim(on_diagonal) == 0

    def test_h_axis_above_diagonal_is_zero(self):
        # the axis check sees only points below the diagonal
        assert P.gamma < 0.0
        assert kernel_h(0.0, 1.0, P) == 0.0
        got = kernel_h(np.array([0.0, 2.0]), np.array([1.0, 0.5]), P)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(kernel_h(2.0, 0.5, P), rel=1e-14)

    def test_hn_composition(self, rng):
        s = rng.uniform(0.5, 8.0, size=100)
        u = s - rng.uniform(0.01, 6.0, size=100)
        u = np.where(np.abs(u) < 1e-3, u + 2e-3, u)
        n = 32
        expected = (
            float(n) ** (1.0 - 2.0 * P.hurst)
            * kernel_gn(s - u, n)
            * kernel_r(s, P)
            * np.conj(kernel_r(u, P))
        )
        np.testing.assert_allclose(kernel_hn(s, u, n, P), expected, rtol=1e-12)

    # the identity sweep pairs kernel_gn with per-atom factors r(s) v, so this
    # keeps kernel_hn's own assembly (mask, scale and r factors) checked at
    # the sweep's 1,000 atoms
    @pytest.mark.parametrize("alpha", [0.8, 1.6])
    @pytest.mark.parametrize("n", [3, 64])
    def test_hn_pair_sum_matches_per_atom_factors(self, alpha, n):
        p = ModelParams(alpha=alpha, hurst=0.75)
        jm = build_jump_measure(alpha, 10.0, 1000, RngStream(16, n))
        got = double_integrate(jm, lambda x, y: kernel_hn(x, y, n, p))
        jm_a = dataclasses.replace(jm, values=kernel_r(jm.locations, p) * jm.values)
        want = float(n) ** (1.0 - 2.0 * p.hurst) * double_integrate(
            jm_a, lambda x, y: kernel_gn(x - y, n))
        assert got == pytest.approx(want, rel=1e-12)

    def test_h_diagonal_prefactor_limit(self):
        # just above the diagonal the prefactor approaches 1
        s, eps = 2.0, 1e-9
        val = kernel_h(s, s - eps, P)
        assert val == pytest.approx(abs(s * (s - eps)) ** P.gamma, rel=1e-6)

    def test_h_matches_quadrature_of_exponential(self, rng):
        # prefactor equals the t-average of exp(i t (s-u)) over [0, 1]
        s, u = 3.0, -1.2
        t = np.linspace(0.0, 1.0, 200001)
        avg = np.trapezoid(np.exp(1j * t * (s - u)), t)
        expected = avg * abs(s * u) ** P.gamma
        assert complex(kernel_h(s, u, P)) == pytest.approx(expected, rel=1e-8)

    def test_h_axis_singularity_raises(self):
        with pytest.raises(SingularityError):
            kernel_h(1.0, 0.0, P)

    def test_hn_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            kernel_hn(1.0, 0.5, 0, P)


class TestPsi:
    def test_normalization_constant(self):
        # plateau 2 c^alpha plus tail 2 c^alpha integral_1^inf s^-2 ds: 4 c^alpha
        for alpha in (0.3, 1.2, 1.999):
            c = psi(0.5, alpha)
            assert 4.0 * c**alpha == pytest.approx(1.0, rel=1e-13)
            tail, _ = integrate.quad(lambda s: psi(s, alpha) ** alpha, 1.0, np.inf)
            assert 2.0 * tail == pytest.approx(0.5, rel=1e-8)

    def test_constant_is_the_general_normalizer_at_two_over_alpha(self):
        # the normalizer 2 (1 + 1/(r alpha - 1)) of a |s|^-r tail at r = 2/alpha,
        # to the bit, so check-condition reads the same envelope either way
        for alpha in map(float, np.linspace(0.01, 1.999, 2000)):
            general = (2.0 * (1.0 + 1.0 / ((2.0 / alpha) * alpha - 1.0))) ** (-1.0 / alpha)
            assert psi(0.0, alpha) == general

    def test_shape(self):
        c = 4.0 ** (-1.0 / 1.2)
        assert psi(0.5, 1.2) == pytest.approx(c)
        assert psi(-0.3, 1.2) == pytest.approx(c)
        assert psi(4.0, 1.2) == pytest.approx(c * 4.0 ** (-2.0 / 1.2))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ParameterError):
            psi(2.0, alpha)


class TestNearest2pi:
    def test_values(self):
        two_pi = 2.0 * math.pi
        assert nearest_2pi(0.0) == 0.0
        assert nearest_2pi(math.pi) == 0.0  # tie goes to the smaller multiple
        assert nearest_2pi(3.5) == pytest.approx(two_pi)
        assert nearest_2pi(3.0 * math.pi) == pytest.approx(two_pi)
        assert nearest_2pi(4.0 * math.pi) == pytest.approx(2.0 * two_pi)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            nearest_2pi(-1.0)
