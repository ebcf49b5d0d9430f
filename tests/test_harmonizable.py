"""Unit tests for coupled increments, Q_n, and the realized limit objects."""

import contextlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from harmstable import (
    HarmstableError,
    JumpMeasure,
    ModelParams,
    ParameterError,
    RngStream,
    SingularityError,
    build_jump_measure,
    double_integrate,
    kernel_h,
    kernel_hn,
    kernel_r,
    normalized_error,
    quadratic_statistic,
    realized_U,
    rosenblatt_fast,
    simulate_increments,
    t_nodes_for,
)
from harmstable.harmonizable import _CELL, _ORDERS
from oracles import dense_increments, dense_limit, phi_qv, traced_peak_mib

P = ModelParams(alpha=1.2, hurst=0.75)


def small_measure(stream: int = 0, n_terms: int = 400) -> JumpMeasure:
    return build_jump_measure(1.2, 10.0, n_terms, RngStream(31, stream))


def recurrence_oracle(s: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Y_j by the per-atom rotation recurrence, restarted every 1024 steps
    from exp(i j s). The restart takes exp of j * s itself, which is exact
    for locations on a dyadic grid, rather than reducing it by a rounded
    2 pi."""
    rot = np.exp(1j * s)
    cur = c.astype(complex)
    out = np.empty(n, dtype=complex)
    for j in range(n):
        if j and j % 1024 == 0:
            cur = c * np.exp(1j * (j * s))
        out[j] = cur.sum()
        cur = cur * rot
    return out


# perfect squares +- 1 and the values around 1024 and 2048
EDGE_N = sorted({q * q + d for q in (1, 2, 3, 10, 32, 45, 54) for d in (-1, 0, 1) if q * q + d >= 1}
                | {1023, 1024, 1025, 2047, 2048, 2049, 3000})


# atom counts around the 4,096-atom block of the two atom-sum loops
MULTI_BLOCK = [4095, 4096, 4097, 8193]


class TestSimulateIncrements:
    def test_matches_direct_evaluation_across_resets(self):
        jm = small_measure(0, n_terms=300)
        n = 2098  # past 1024 and 2048; B = 45 baby and K = 47 giant steps
        y, _ = simulate_increments(jm, n, P)
        amp = kernel_r(jm.locations, P) * jm.values
        direct = np.exp(1j * np.outer(np.arange(n), jm.locations)) @ amp
        scale = np.abs(direct).max()
        np.testing.assert_allclose(y, direct, rtol=0,
                                   atol=1e-10 * scale)

    @settings(max_examples=40)
    @given(
        n=st.one_of(st.sampled_from(EDGE_N), st.integers(1, 3000)),
        n_terms=st.integers(1, 500),
        half_width=st.floats(1.0, 100.0),
        stream=st.integers(0, 2**16),
    )
    def test_matches_dense_sum_and_recurrence(self, n, n_terms, half_width, stream):
        jm = build_jump_measure(1.2, half_width, n_terms, RngStream(47, stream))
        # a 2^-20 grid makes j * s exact for j < 3000, so neither oracle
        # rounds the phase
        s = np.round(jm.locations * 2.0**20) / 2.0**20
        assume(np.all(np.diff(s) > 0.0))
        jm = JumpMeasure(s, jm.values, half_width, jm.calibration)
        c = kernel_r(s, P) * jm.values
        tol = 1e-12 * float(np.abs(c).sum())
        y, _ = simulate_increments(jm, n, P)
        dense = np.exp(1j * np.outer(np.arange(n), s)) @ c
        assert np.abs(y - dense).max() <= tol
        assert np.abs(y - recurrence_oracle(s, c, n)).max() <= tol

    @pytest.mark.parametrize("n_terms", MULTI_BLOCK)
    def test_blocks_match_dense_sum(self, n_terms):
        # one atom short of a block, a full block, and one and two full
        # blocks plus a one-atom remainder, on a 2^-20 grid so that the
        # oracle's j * s is exact
        jm = build_jump_measure(1.2, 50.0, n_terms, RngStream(53, n_terms))
        s = np.round(jm.locations * 2.0**20) / 2.0**20
        assert np.all(s[1:] > s[:-1])
        jm = JumpMeasure(s, jm.values, 50.0, jm.calibration)
        c = kernel_r(s, P) * jm.values
        tol = 1e-12 * float(np.abs(c).sum())
        for n in (1, 2, 17, 512):
            y, _ = simulate_increments(jm, n, P)
            assert np.abs(y - dense_increments(s, c, n)).max() <= tol

    def test_empty_measure_gives_zero_increments(self):
        empty = JumpMeasure(np.array([]), np.array([], complex), 1.0, 1.0)
        y, u = simulate_increments(empty, 5, P)
        np.testing.assert_array_equal(y, np.zeros(5))
        assert u == 0.0 and type(u) is float

    def test_provenance_copied(self):
        # the increments are a plain vector; the measure they came from
        # carries the window and the atom count
        jm = small_measure(1)
        y, _ = simulate_increments(jm, 8, P)
        assert type(y) is np.ndarray and y.shape == (8,) and y.dtype == complex
        assert jm.half_width == 10.0 and jm.n_terms == 400

    def test_deterministic(self):
        a, u_a = simulate_increments(small_measure(2), 32, P)
        b, u_b = simulate_increments(small_measure(2), 32, P)
        np.testing.assert_array_equal(a, b)
        assert u_a == u_b

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            simulate_increments(small_measure(3), 0, P)


class TestQuadraticStatistic:
    def test_partial_sums(self):
        y, _ = simulate_increments(small_measure(4), 64, P)
        csum = np.cumsum(np.abs(y) ** 2)
        for m in (1, 2, 17, 64):
            assert quadratic_statistic(y, m) == pytest.approx(
                csum[m - 1], rel=1e-13
            )

    def test_rejects_out_of_range_m(self):
        y, _ = simulate_increments(small_measure(4), 16, P)
        for m in (0, -1, 17):
            with pytest.raises(ParameterError):
                quadratic_statistic(y, m)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_square_raises(self):
        # |Y_0|^2 overflows; simulate_increments raises first on such atoms,
        # since their U overflows too
        y = np.array([1e200 + 0j, 1e200 + 0j])
        with pytest.raises(SingularityError, match="non-finite"):
            quadratic_statistic(y, 2)


def overflowing_measure() -> JumpMeasure:
    return JumpMeasure(np.array([-1.0, 0.5]), np.array([1e200 + 0j, 1e200 + 0j]), 2.0, 1.0)


def phi_oracle_u(jm: JumpMeasure, p: ModelParams) -> float:
    """U = 2 sum_i phi(s_i) |v_i|^2, the route through the spectral density."""
    return 2.0 * float(np.sum(phi_qv(jm.locations, p) * np.abs(jm.values) ** 2))


def long_double_u(jm: JumpMeasure, p: ModelParams) -> float:
    """U = sum_i |r(s_i) v_i|^2 with |r(s)|^2 = (2 sin(s/2) / s)^2 |s|^(2 gamma),
    all in long double."""
    s = jm.locations.astype(np.longdouble)
    v = jm.values
    w = v.real.astype(np.longdouble) ** 2 + v.imag.astype(np.longdouble) ** 2
    r2 = (2.0 * np.sin(0.5 * s) / s) ** 2 * np.abs(s) ** (2 * np.longdouble(p.gamma))
    return float(np.sum(w * r2))


@pytest.mark.filterwarnings("error")
class TestRealizedU:
    # U from the increment pass against the phi route, at atom counts around
    # the pass's 4,096-atom block
    @settings(max_examples=10)
    @given(
        alpha=st.floats(0.5, 1.99),
        hurst=st.floats(0.01, 0.99),
        half_width=st.floats(1.0, 100.0),
        stream=st.integers(0, 2**16),
    )
    @example(alpha=1.2, hurst=0.75, half_width=50.0, stream=0)  # gamma < 0
    @example(alpha=1.9, hurst=0.2, half_width=50.0, stream=0)  # gamma > 0
    def test_equals_qv_integral_of_spectral_density(self, alpha, hurst, half_width, stream):
        p = ModelParams(alpha, hurst)
        for n_terms in MULTI_BLOCK:
            jm = build_jump_measure(alpha, half_width, n_terms, RngStream(59, stream))
            _, u = simulate_increments(jm, 3, p)
            assert u > 0.0
            assert u == pytest.approx(phi_oracle_u(jm, p), rel=1e-14)
            assert realized_U(jm, p) == u

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_alpha_matches_long_double(self, seed):
        # phi's |s|^(-2H-2/alpha) overflows on the first two of these measures,
        # where the amplitudes and their squares stay finite
        p = ModelParams(0.02, 0.5)
        jm = build_jump_measure(p.alpha, 20.0, 20_000, RngStream(seed, 0))
        y, u = simulate_increments(jm, 20, p)
        assert np.all(np.isfinite(y))
        assert u == pytest.approx(long_double_u(jm, p), rel=1e-13)

    def test_overflowing_amplitude_raises(self):
        # |r(-1e-8)| is about (1e-8)^gamma = 1e396 at alpha 0.02, H 0.5
        jm = JumpMeasure(np.array([-1e-8, 0.5]), np.array([1 + 0j, 1 + 0j]), 2.0, 1.0)
        with pytest.raises(SingularityError, match="non-finite"):
            simulate_increments(jm, 4, ModelParams(0.02, 0.5))

    def test_overflowing_square_raises(self):
        with pytest.raises(SingularityError, match="non-finite"):
            realized_U(overflowing_measure(), P)


class TestNormalizedError:
    def test_formula(self):
        assert normalized_error(10.0, 2.0, 4, P) == pytest.approx(
            4.0 ** 0.5 * (2.5 - 2.0)
        )

    def test_zero_at_limit(self):
        assert normalized_error(6.0, 2.0, 3, P) == 0.0

    def test_rejects_bad_m(self):
        with pytest.raises(ParameterError):
            normalized_error(1.0, 1.0, 0, P)

    def test_overflowing_result_raises(self):
        # 4^1.5 * 2.5e307 overflows
        with pytest.raises(SingularityError, match="non-finite"):
            normalized_error(1e308, 0.0, 4, ModelParams(1.2, 0.25))


class TestCouplingIdentity:
    def test_rescaled_error_equals_pair_sum_exactly(self):
        # the finite-n link between the statistic and the double integral
        # holds atom by atom, not just in distribution
        jm = small_measure(6)
        n = 64
        y, u = simulate_increments(jm, n, P)
        q_n = quadratic_statistic(y, n)
        lhs = normalized_error(q_n, u, n, P)
        rhs = 2.0 * complex(double_integrate(jm, lambda s, u: kernel_hn(s, u, n, P))).real
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


@pytest.mark.filterwarnings("error")
class TestParameterBox:
    # alpha in [0.005, 1.99] with extra draws near both ends, hurst on both
    # sides of 1 - 1/alpha (both signs of gamma), and windows that are not
    # multiples of the limit draw's cell width 1/2
    @settings(max_examples=500)
    @given(
        alpha=st.one_of(st.floats(0.005, 1.99), st.floats(0.005, 0.05),
                        st.floats(1.9, 1.99), st.sampled_from([0.005, 1.99])),
        hurst=st.one_of(st.floats(0.01, 0.99), st.sampled_from([0.01, 0.99])),
        half_width=st.one_of(st.floats(1.0, 200.0), st.sampled_from([1.0, 1.3, 7.25, 200.0])),
        n_terms=st.integers(1, 2000),
        n=st.integers(1, 64),
        stream=st.integers(0, 2**16),
    )
    @example(alpha=1.9, hurst=0.2, half_width=7.25, n_terms=2000, n=64, stream=0)  # gamma > 0
    @example(alpha=0.02, hurst=0.5, half_width=20.0, n_terms=2000, n=20, stream=0)  # gamma < 0
    def test_pipeline_is_finite_or_raises(self, alpha, hurst, half_width, n_terms, n, stream):
        # each step returns finite values or raises a HarmstableError
        p = ModelParams(alpha, hurst)
        try:
            jm = build_jump_measure(alpha, half_width, n_terms, RngStream(67, stream))
        except HarmstableError:
            return
        assert np.all(np.isfinite(jm.values))
        with contextlib.suppress(HarmstableError):
            y, u = simulate_increments(jm, n, p)
            assert np.all(np.isfinite(y)) and math.isfinite(u)
            q = quadratic_statistic(y, n)
            assert math.isfinite(q)
            assert math.isfinite(normalized_error(q, u, n, p))
        with contextlib.suppress(HarmstableError):
            assert math.isfinite(rosenblatt_fast(jm, p))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRosenblatt:
    def test_brute_and_fast_routes_agree(self):
        jm = small_measure(7)
        brute = 2 * double_integrate(jm, lambda s, u: kernel_h(s, u, P)).real
        fast = rosenblatt_fast(jm, P)
        assert fast == pytest.approx(brute, rel=1e-11)

    def test_t_node_refinement_is_converged(self):
        jm = small_measure(8)
        a = rosenblatt_fast(jm, P, t_nodes=64)
        b = rosenblatt_fast(jm, P, t_nodes=256)
        assert a == pytest.approx(b, rel=1e-9)

    def test_degenerate_measures(self):
        empty = JumpMeasure(np.array([]), np.array([], complex), 1.0, 1.0)
        single = JumpMeasure(np.array([0.5]), np.array([1j]), 1.0, 1.0)
        assert rosenblatt_fast(empty, P) == 0.0
        assert rosenblatt_fast(single, P) == 0.0

    def test_atom_at_origin_rejected_for_negative_gamma(self):
        jm = JumpMeasure(
            np.array([-1.0, 0.0, 1.5]),
            np.array([1.0 + 0j, 1.0 + 0j, 1.0 + 0j]),
            2.0,
            1.0,
        )
        with pytest.raises(SingularityError):
            rosenblatt_fast(jm, P)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ParameterError):
            rosenblatt_fast(small_measure(9), P, t_nodes=1)

    def test_overflowing_amplitudes_raise(self):
        # |a_i|^2 overflows: the draw raises rather than return NaN
        jm = JumpMeasure(np.array([-1.0, 0.5]), np.array([1e200 + 0j, 1e200 + 0j]), 2.0, 1.0)
        with pytest.raises(SingularityError, match="non-finite"):
            rosenblatt_fast(jm, P)

    def test_taylor_order_is_the_smallest_within_the_bound(self):
        # for t in [0, 1] and |f| <= h/2 the remainder of exp(i t f) after
        # p terms is at most (h/2)^p / p!
        remainder = lambda p: (_CELL / 2) ** p / math.factorial(p)
        assert remainder(_ORDERS) <= 2.0**-64 < remainder(_ORDERS - 1)


def pair_sum_oracle(jm: JumpMeasure, p: ModelParams) -> float:
    return 2 * double_integrate(jm, lambda s, u: kernel_h(s, u, p)).real


def diagonal_scale(jm: JumpMeasure, p: ModelParams) -> float:
    """sum_i |a_i|^2, the term the t-quadrature subtracts from its total."""
    amp = np.abs(jm.locations) ** p.gamma * jm.values
    return float(np.sum(amp.real**2 + amp.imag**2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNodeRule:
    def test_rule(self):
        assert t_nodes_for(20.0) == 36
        assert t_nodes_for(1.0) == 17 and t_nodes_for(1.5) == 18
        assert t_nodes_for(500.0) == 516

    @pytest.mark.parametrize("half_width", [1.0, 5.0, 20.0, 50.0, 120.0, 500.0])
    def test_derived_count_matches_refined_rule(self, half_width):
        jm = build_jump_measure(1.2, half_width, 20000, RngStream(41, int(half_width)))
        nodes = t_nodes_for(half_width)
        value = rosenblatt_fast(jm, P)
        refined = rosenblatt_fast(jm, P, t_nodes=4 * nodes)
        scale = max(abs(refined), 1e-6 * diagonal_scale(jm, P))
        assert abs(value - refined) <= 1e-12 * scale
        assert value == rosenblatt_fast(jm, P, t_nodes=nodes)

    @pytest.mark.parametrize("t_nodes", [31, 40])
    def test_odd_and_even_counts_match_pair_sum(self, t_nodes):
        jm = small_measure(15)
        oracle = pair_sum_oracle(jm, P)
        assert rosenblatt_fast(jm, P, t_nodes=t_nodes) == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("t_nodes", [36, 37])
    @pytest.mark.parametrize("n_terms", MULTI_BLOCK)
    def test_blocks_match_dense_limit(self, n_terms, t_nodes):
        # cell moments summed over one to three atom blocks, a cell that a
        # block boundary cuts listed once per block, against |A(t)|^2
        # evaluated directly at the same nodes; 37 adds the centre node
        jm = build_jump_measure(1.2, 20.0, n_terms, RngStream(59, n_terms))
        fast = rosenblatt_fast(jm, P, t_nodes=t_nodes)
        assert abs(fast - dense_limit(jm, P, t_nodes)) <= 1e-12 * diagonal_scale(jm, P)

    @settings(max_examples=30)
    @given(
        half_width=st.floats(1.0, 200.0),
        n_terms=st.integers(2, 300),
        hurst=st.floats(0.55, 0.95),
        stream=st.integers(0, 2**16),
    )
    def test_derived_count_matches_pair_sum(self, half_width, n_terms, hurst, stream):
        p = ModelParams(alpha=1.2, hurst=hurst)
        jm = build_jump_measure(1.2, half_width, n_terms, RngStream(43, stream))
        oracle = pair_sum_oracle(jm, p)
        scale = max(abs(oracle), 1e-6 * diagonal_scale(jm, p))
        assert abs(rosenblatt_fast(jm, p) - oracle) <= 1e-11 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCellMoments:
    @settings(max_examples=40)
    @given(
        alpha=st.floats(0.3, 1.95),
        hurst=st.floats(0.02, 0.98),
        half_width=st.floats(0.3, 200.0),
        n_terms=st.integers(2, 5000),
        t_nodes=st.integers(2, 250),
        stream=st.integers(0, 2**16),
    )
    # gamma = 1 - hurst - 1/alpha above and below 0; windows narrower than
    # one cell and not a multiple of it
    @example(alpha=1.9, hurst=0.2, half_width=7.3, n_terms=3000, t_nodes=24, stream=1)
    @example(alpha=1.9, hurst=0.6, half_width=7.3, n_terms=3000, t_nodes=23, stream=1)
    @example(alpha=0.3, hurst=0.5, half_width=0.3, n_terms=50, t_nodes=17, stream=2)
    @example(alpha=1.2, hurst=0.75, half_width=0.49, n_terms=2, t_nodes=18, stream=3)
    def test_matches_dense_limit(self, alpha, hurst, half_width, n_terms, t_nodes, stream):
        p = ModelParams(alpha, hurst)
        jm = build_jump_measure(alpha, half_width, n_terms, RngStream(67, stream))
        fast = rosenblatt_fast(jm, p, t_nodes=t_nodes)
        assert abs(fast - dense_limit(jm, p, t_nodes)) <= 1e-12 * diagonal_scale(jm, p)

    @pytest.mark.parametrize("t_nodes", [18, 19])
    def test_atoms_on_cell_boundaries(self, t_nodes):
        # (g + 1/2) h is a tie of rint, so |f| = h/2 exactly; the window's
        # ends +-M sit on ties too. Every atom here carries the largest
        # Taylor remainder, so the bound is tighter than the property
        # test's: measured 1.5e-16, and 1.6e-14 with 10 orders in place of 14
        half_width = 2.25
        ties = (np.arange(-4, 5) + 0.5) * _CELL
        s = np.unique(np.concatenate([ties, [-half_width, 0.1, 0.3, half_width]]))
        v = np.random.default_rng(71).normal(size=(s.size, 2)) @ np.array([1.0, 1j])
        jm = JumpMeasure(s, v, half_width, 1.0)
        fast = rosenblatt_fast(jm, P, t_nodes=t_nodes)
        assert abs(fast - dense_limit(jm, P, t_nodes)) <= 1e-15 * diagonal_scale(jm, P)
        assert fast == pytest.approx(pair_sum_oracle(jm, P), rel=1e-11)


def symmetry_base(alpha, hurst, half_width, n_terms, n, k, stream):
    """A measure with Y_j for j < n + k, U, R and their scales sqrt(N U)
    and sum_i |a_i|^2."""
    p = ModelParams(alpha, hurst)
    jm = build_jump_measure(alpha, half_width, n_terms, RngStream(83, stream))
    y, u = simulate_increments(jm, n + k, p)
    return jm, p, y, u, rosenblatt_fast(jm, p), math.sqrt(jm.n_terms * u), diagonal_scale(jm, p)


# (alpha, hurst, half_width, n_terms, n, k, stream): 10^5 atoms at n = 512 on
# the lln window and on the wide M = 500 of the limit draw, then the corners
# of the parameter box, where gamma takes both signs, at windows from 1 to 80
# and down to two atoms, and one interior point
SYMMETRY_CASES = [
    (1.2, 0.75, 50.0, 100_000, 512, 37, 0),
    (1.2, 0.75, 500.0, 100_000, 512, 23, 1),
    (0.3, 0.05, 1.0, 2_000, 300, 50, 2),
    (0.3, 0.95, 80.0, 20_000, 300, 1, 3),
    (1.95, 0.05, 80.0, 20_000, 257, 50, 4),
    (1.95, 0.95, 1.0, 2, 1, 1, 5),
    (0.8, 0.6, 7.3, 5_000, 64, 9, 6),
]


@pytest.mark.filterwarnings("error")
class TestSymmetries:
    """Exact relations of the model on any atomic measure, which the fast
    routes must keep at production size with no oracle. They catch index
    and phase errors in the increments (a wrong giant step, a conjugated
    value), not errors inside the limit draw's cell expansion, which the
    dense oracles above check. Bounds are 1e-13 of sqrt(N U) for Y and of
    sum_i |a_i|^2 for R, and 1e-13 relative for U; measured at most 1.2e-15,
    1.9e-15 and 3.5e-16."""

    @pytest.fixture(scope="class", params=SYMMETRY_CASES,
                    ids=lambda c: f"alpha{c[0]}-hurst{c[1]}-M{c[2]:g}-atoms{c[3]}")
    def base(self, request):
        return request.param, symmetry_base(*request.param)

    def test_rotation(self, base):
        # v -> e^(i phi) v gives Y -> e^(i phi) Y and leaves U and R
        (*_, n, k, _), (jm, p, y, u, r, y_scale, r_scale) = base
        turn = np.exp(2.0j)
        y2, u2 = simulate_increments(replace(jm, values=turn * jm.values), n + k, p)
        assert np.max(np.abs(y2 - turn * y)) <= 1e-13 * y_scale
        assert abs(u2 - u) <= 1e-13 * u
        r2 = rosenblatt_fast(replace(jm, values=turn * jm.values), p)
        assert abs(r2 - r) <= 1e-13 * r_scale

    def test_frequency_shift(self, base):
        # v -> v e^(i k s) gives Y_j -> Y_(j+k), for every j < n
        (*_, n, k, _), (jm, p, y, _, _, y_scale, _) = base
        shifted = replace(jm, values=jm.values * np.exp(1j * k * jm.locations))
        y2, _ = simulate_increments(shifted, n, p)
        assert np.max(np.abs(y2 - y[k:])) <= 1e-13 * y_scale

    def test_reflection(self, base):
        # atoms at -s in reversed order with values conj(v) give Y -> conj(Y)
        # and leave U and R, since r(-s) = conj(r(s))
        (*_, n, k, _), (jm, p, y, u, r, y_scale, r_scale) = base
        mirror = replace(jm, locations=-jm.locations[::-1], values=np.conj(jm.values[::-1]))
        y2, u2 = simulate_increments(mirror, n + k, p)
        assert np.max(np.abs(y2 - np.conj(y))) <= 1e-13 * y_scale
        assert abs(u2 - u) <= 1e-13 * u
        assert abs(rosenblatt_fast(mirror, p) - r) <= 1e-13 * r_scale


class TestWorkingSet:
    """Traced peaks at 10^5 atoms, where one float per atom is 0.76 MiB.
    The kernels keep their tables to one 4,096-atom block; the bounds sit
    about 25% above the peaks measured on numpy 2.4 and below the peaks of
    whole-array tables (in brackets)."""

    @pytest.fixture(scope="class")
    def measures(self):
        return {
            hw: build_jump_measure(1.2, hw, 100_000, RngStream(61, int(hw)))
            for hw in (20.0, 50.0)
        }

    # measured 1.2 MiB at both [32.1 and 35.1]; the bounds are kept at 4.0
    # and 4.6, 25% above the 3.2 and 3.7 of per-block cosine and sine tables
    @pytest.mark.parametrize("half_width, bound", [(20.0, 4.0), (50.0, 4.6)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_limit_draw(self, measures, half_width, bound):
        jm = measures[half_width]
        assert traced_peak_mib(lambda: rosenblatt_fast(jm, P)) <= bound

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_limit_draw_on_a_wide_window(self):
        # measured 2.4 MiB [16.5 with per-block cosine and sine tables] at
        # 20,000 atoms and 516 nodes: the moments hold 2 x 14 floats per
        # occupied cell, and the exponentials one block of nodes x cells
        jm = build_jump_measure(1.2, 500.0, 20_000, RngStream(61, 500))
        assert traced_peak_mib(lambda: rosenblatt_fast(jm, P)) <= 3.0

    def test_increments(self, measures):
        # measured 3.2 MiB [4.6]: the two tables are 2 sqrt(n) x 4096 entries
        jm = measures[50.0]
        assert traced_peak_mib(lambda: simulate_increments(jm, 512, P)) <= 4.0

    def test_measure_build(self):
        # measured 3.9 MiB [7.7]: the atoms themselves (2.3), one array of
        # weights and one of tangents (0.76 each) and the tie check's mask
        peak = traced_peak_mib(lambda: build_jump_measure(1.2, 50.0, 100_000, RngStream(61, 0)))
        assert peak <= 4.9
