"""Unit tests for coupled increments, Q_n, and the realized limit objects."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harmstable import (
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
    phi_qv,
    quadratic_statistic,
    realized_U,
    rosenblatt_fast,
    simulate_increments,
    t_nodes_for,
)
from oracles import dense_increments, dense_limit, traced_peak_mib

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
        y = simulate_increments(jm, n, P)
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
        y = simulate_increments(jm, n, P)
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
            y = simulate_increments(jm, n, P)
            assert np.abs(y - dense_increments(s, c, n)).max() <= tol

    def test_empty_measure_gives_zero_increments(self):
        empty = JumpMeasure(np.array([]), np.array([], complex), 1.0, 1.0)
        np.testing.assert_array_equal(simulate_increments(empty, 5, P), np.zeros(5))

    def test_provenance_copied(self):
        # the increments are a plain vector; the measure they came from
        # carries the window and the atom count
        jm = small_measure(1)
        y = simulate_increments(jm, 8, P)
        assert type(y) is np.ndarray and y.shape == (8,) and y.dtype == complex
        assert jm.half_width == 10.0 and jm.n_terms == 400

    def test_deterministic(self):
        a = simulate_increments(small_measure(2), 32, P)
        b = simulate_increments(small_measure(2), 32, P)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            simulate_increments(small_measure(3), 0, P)


class TestQuadraticStatistic:
    def test_partial_sums(self):
        y = simulate_increments(small_measure(4), 64, P)
        csum = np.cumsum(np.abs(y) ** 2)
        for m in (1, 2, 17, 64):
            assert quadratic_statistic(y, m) == pytest.approx(
                csum[m - 1], rel=1e-13
            )

    def test_rejects_out_of_range_m(self):
        y = simulate_increments(small_measure(4), 16, P)
        for m in (0, -1, 17):
            with pytest.raises(ParameterError):
                quadratic_statistic(y, m)


class TestRealizedU:
    def test_equals_qv_integral_of_spectral_density(self):
        jm = small_measure(5)
        weights = np.abs(jm.values) ** 2
        expected = 2.0 * float(np.sum(phi_qv(jm.locations, P) * weights))
        assert realized_U(jm, P) == pytest.approx(expected, rel=1e-14)
        assert realized_U(jm, P) > 0.0


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


class TestCouplingIdentity:
    def test_rescaled_error_equals_pair_sum_exactly(self):
        # the finite-n link between the statistic and the double integral
        # holds atom by atom, not just in distribution
        jm = small_measure(6)
        n = 64
        y = simulate_increments(jm, n, P)
        q_n = quadratic_statistic(y, n)
        lhs = normalized_error(q_n, realized_U(jm, P), n, P)
        rhs = 2.0 * complex(double_integrate(jm, lambda s, u: kernel_hn(s, u, n, P))).real
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


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


def pair_sum_oracle(jm: JumpMeasure, p: ModelParams) -> float:
    return 2 * double_integrate(jm, lambda s, u: kernel_h(s, u, p)).real


def diagonal_scale(jm: JumpMeasure, p: ModelParams) -> float:
    """sum_i |a_i|^2, the term the t-quadrature subtracts from its total."""
    amp = np.abs(jm.locations) ** p.gamma * jm.values
    return float(np.sum(amp.real**2 + amp.imag**2))


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
        # C and S summed over one to three atom blocks against |A(t)|^2
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

    # measured 3.2 and 3.7 MiB [32.1 and 35.1]
    @pytest.mark.parametrize("half_width, bound", [(20.0, 4.0), (50.0, 4.6)])
    def test_limit_draw(self, measures, half_width, bound):
        jm = measures[half_width]
        assert traced_peak_mib(lambda: rosenblatt_fast(jm, P)) <= bound

    def test_increments(self, measures):
        # measured 3.2 MiB [4.6]: the two tables are 2 sqrt(n) x 4096 entries
        jm = measures[50.0]
        assert traced_peak_mib(lambda: simulate_increments(jm, 512, P)) <= 4.0

    def test_measure_build(self):
        # measured 3.9 MiB [7.7], of which the atoms themselves are 2.3
        peak = traced_peak_mib(lambda: build_jump_measure(1.2, 50.0, 100_000, RngStream(61, 0)))
        assert peak <= 4.9
