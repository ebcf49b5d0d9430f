"""Unit tests for the experiment runners and verification checks."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from harmstable import analysis
from harmstable import (
    ConfigError,
    ModelParams,
    ParameterError,
    QuadratureError,
    QuadratureSpec,
    RngStream,
    build_jump_measure,
    envelope_quadrature,
    identity_suite,
    iid_stable_qv_experiment,
    kernel_limit_check,
    kernel_r,
    ks_two_sample,
    loglog_slope,
    run_clt_experiment,
    rosenblatt_fast,
    run_lln_experiment,
    simulate_increments,
)
from oracles import envelope_quadrature_loop, pair_table_sums, traced_peak_mib

P = ModelParams(alpha=1.2, hurst=0.75)


class TestKsTwoSample:
    def test_hand_value(self):
        # ECDFs of {1,2} and {1.5,2.5} differ by 1/2 on [1,1.5) and [2,2.5)
        assert ks_two_sample([1.0, 2.0], [1.5, 2.5]) == pytest.approx(0.5)

    def test_identical_samples(self):
        x = [0.3, 1.7, -2.0, 5.0]
        assert ks_two_sample(x, x) == 0.0

    def test_matches_reference_implementation(self, rng):
        a = rng.normal(size=257)
        b = rng.normal(loc=0.3, size=401)
        ref = stats.ks_2samp(a, b).statistic
        assert ks_two_sample(a, b) == pytest.approx(ref, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            ks_two_sample([], [1.0])


class TestLoglogSlope:
    def test_exact_power_law(self):
        pts = [(n, 3.0 * n**-2.0) for n in (4, 16, 64, 256)]
        slope, stderr = loglog_slope(pts)
        assert slope == pytest.approx(-2.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_noisy_fit_reports_spread(self):
        pts = [(4, 1.0), (16, 0.3), (64, 0.05)]
        slope, stderr = loglog_slope(pts)
        assert slope < 0.0 and stderr > 0.0

    def test_rejects_degenerate_input(self):
        with pytest.raises(ParameterError):
            loglog_slope([(4, 1.0), (16, 0.5)])
        with pytest.raises(ParameterError):
            loglog_slope([(4, 1.0), (4, 0.5), (16, 0.2)])
        with pytest.raises(ParameterError):
            loglog_slope([(4, 1.0), (16, 0.0), (64, 0.1)])


class TestRunLlnExperiment:
    def test_report_shape_and_decay(self):
        samples, results = run_lln_experiment(P, 5.0, 400, (8, 16, 32), 50, seed=9, threads=1)
        assert [row["n"] for row in results["per_n"]] == [8, 16, 32]
        for row in results["per_n"]:
            assert 0.0 <= row["q25"] <= row["median"] <= row["q75"]
        assert samples.shape == (50, 3)
        assert results["slope"] < 0.0 and results["slope_stderr"] > 0.0
        # the statistic itself grows essentially linearly in n
        assert results["q_slope"] == pytest.approx(1.0, abs=0.2)

    def test_deterministic_across_thread_counts(self):
        samples_a, results_a = run_lln_experiment(P, 5.0, 400, (8, 16, 32), 50, seed=9, threads=1)
        samples_b, results_b = run_lln_experiment(P, 5.0, 400, (8, 16, 32), 50, seed=9, threads=4)
        np.testing.assert_array_equal(samples_a, samples_b)
        assert results_a["slope"] == results_b["slope"]

    def test_single_atom_degeneracy_reports_no_slope(self):
        # one atom makes |Y_j| constant in j, so Q_m/m - U sits at rounding
        # level and no decay rate is measurable; a window of 0.01 keeps
        # n = 32 inside the resolution limit 1 / (2 * 0.01) of a single atom
        _, results = run_lln_experiment(P, 0.01, 1, (8, 16, 32), 50, seed=9, threads=1)
        assert results["slope"] is None and results["slope_stderr"] is None
        assert results["q_slope"] is None and results["q_slope_stderr"] is None
        q_by_n = {row["n"]: row["q_median"] for row in results["q_median_per_n"]}
        for row in results["per_n"]:
            assert row["median"] <= 1e-12 * q_by_n[row["n"]] / row["n"]

    def test_resolution_guard(self):
        with pytest.raises(ConfigError, match="resolution"):
            run_lln_experiment(P, 5.0, 400, (8, 64), 50, seed=9, threads=1)

    def test_rejects_bad_config(self):
        with pytest.raises(ParameterError):
            run_lln_experiment(P, 5.0, 400, (8, 16, 32), 10, seed=9)
        with pytest.raises(ParameterError):
            run_lln_experiment(P, 5.0, 400, (16, 8), 50, seed=9)
        with pytest.raises(ParameterError):
            run_lln_experiment(P, 5.0, 400, (8, 16, 32), 50, seed=9, threads=-1)


class TestRunCltExperiment:
    def test_report_shape(self):
        samples, results = run_clt_experiment(P, 5.0, 400, 16, 8, seed=10, threads=1)
        assert 0.0 <= results["ks_distance"] <= 1.0
        # 8 errors on streams 0..7 over 8 limit draws on streams 8..15
        assert samples.shape == (16, 1)
        # the two samples come from disjoint substreams
        assert not np.array_equal(samples[:8], samples[8:])

    def test_deterministic(self):
        samples_a, results_a = run_clt_experiment(P, 5.0, 400, 16, 8, seed=10, threads=1)
        samples_b, results_b = run_clt_experiment(P, 5.0, 400, 16, 8, seed=10, threads=3)
        np.testing.assert_array_equal(samples_a, samples_b)
        assert results_a["ks_distance"] == results_b["ks_distance"]

    def test_default_nodes_follow_window(self):
        # ceil(5) + 16 = 21 Gauss-Legendre nodes at half-width 5; the limit
        # draws sit on streams 4..7, after the 4 error draws
        samples, _ = run_clt_experiment(P, 5.0, 400, 16, 4, seed=10, threads=1)
        expected = [
            rosenblatt_fast(
                build_jump_measure(P.alpha, 5.0, 400, RngStream(10, 4 + i)), P, t_nodes=21
            )
            for i in range(4)
        ]
        assert samples[4:, 0].tolist() == expected

    @pytest.mark.parametrize("alpha,hurst", [(1.8, 0.55), (1.2, 0.4)])
    def test_rejects_parameters_outside_limit_regime(self, alpha, hurst):
        with pytest.raises(ConfigError):
            run_clt_experiment(
                ModelParams(alpha, hurst), 5.0, 400, 16, 8, seed=10
            )

    def test_resolution_guard(self):
        with pytest.raises(ConfigError):
            run_clt_experiment(P, 5.0, 400, 64, 8, seed=10)


class TestIidStableQvExperiment:
    def test_superlinear_growth_rate(self):
        samples, results = iid_stable_qv_experiment(1.5, (64, 256, 1024), 100, seed=7, threads=1)
        assert results["slope"] == pytest.approx(2.0 / 1.5, abs=0.25)
        assert samples.shape == (100, 3)

    def test_gaussian_case_grows_linearly(self):
        _, results = iid_stable_qv_experiment(2.0, (64, 256, 1024), 100, seed=8, threads=1)
        assert results["slope"] == pytest.approx(1.0, abs=0.1)

    def test_rejects_small_replication_count(self):
        with pytest.raises(ParameterError):
            iid_stable_qv_experiment(1.5, (64, 256, 1024), 99, seed=7)


class TestIdentitySuite:
    def test_residuals_at_machine_precision(self):
        out = identity_suite(6, seed=11, n_terms=200, n_increments=16, threads=1)
        assert out["max_square_decomposition_residual"] < 1e-12
        assert out["max_error_representation_residual"] < 1e-12
        assert out["trials"] == 6 and out["seed"] == 11
        assert out["alphas"] == [0.8, 1.2, 1.6]

    @settings(max_examples=60)
    @given(
        alpha=st.floats(0.1, 1.99),
        hurst=st.floats(0.02, 0.98),
        n=st.builds(lambda k, d: k * k + d, st.integers(2, 16), st.sampled_from((-1, 0, 1))),
        seed=st.integers(0, 2**31 - 1),
    )
    # gamma = 1 - H - 1/alpha runs from -9.98 to +0.48 over the corners and
    # is -0.0025, next to its sign change, at alpha = 1.99, H = 1/2
    @example(alpha=1.99, hurst=0.5, n=64, seed=0)
    @example(alpha=0.1, hurst=0.02, n=63, seed=0)
    @example(alpha=1.99, hurst=0.98, n=65, seed=0)
    def test_identities_hold_across_parameter_space(self, alpha, hurst, n, seed):
        out = identity_suite(1, seed, alphas=(alpha,), hurst=hurst, n_terms=300,
                             n_increments=n, threads=1)
        assert out["max_square_decomposition_residual"] <= 1e-10
        assert out["max_error_representation_residual"] <= 1e-10

    def test_cancelling_heavy_atom_stays_under_gate(self):
        # trial 0 (alpha 0.8): Q_m/m and U are both ~6e13 and their rescaled
        # difference ~7e6, so a rounding-level residual of the terms is far
        # above 1e-8 of the difference
        out = identity_suite(1, seed=58000, half_width=10.0, n_terms=1000, threads=1)
        assert out["max_error_representation_residual"] <= 1e-12

    def test_perturbed_increment_exceeds_gate(self, monkeypatch):
        # the largest Y_j overall moves Q_m; the largest Y_j with j <= 16 is
        # one that the square decomposition reads
        for head, key in ((None, "max_error_representation_residual"),
                          (17, "max_square_decomposition_residual")):
            def perturbed(jm, n, p, head=head):
                y, u = simulate_increments(jm, n, p)
                y[np.argmax(np.abs(y[:head]))] *= 1.0 + 1e-6
                return y, u

            monkeypatch.setattr(analysis, "simulate_increments", perturbed)
            out = identity_suite(1, seed=58000, half_width=10.0, n_terms=1000, threads=1)
            assert out[key] > 1e-8

    def test_rejects_bad_counts(self):
        with pytest.raises(ParameterError):
            identity_suite(0, seed=11)
        with pytest.raises(ParameterError):
            identity_suite(1, seed=11, n_increments=0)

    def test_rejects_empty_alphas(self):
        with pytest.raises(ParameterError, match="alphas"):
            identity_suite(1, 0, alphas=())

    def test_evaluator_disagreement_raises(self, monkeypatch):
        double_integrate = analysis.double_integrate
        monkeypatch.setattr(analysis, "double_integrate",
                            lambda jm, f: (1.0 + 1e-6) * double_integrate(jm, f))
        with pytest.raises(QuadratureError, match="disagree"):
            identity_suite(1, seed=11, n_terms=200, threads=1)

    def test_recompute_trial_is_independent_of_prefix_sums(self, monkeypatch):
        # trial 0 takes its level-m pair sum from the pair walk, trial 1 from
        # the prefix sums, so a perturbed prefix-route level shows only in
        # runs that reach trial 1
        pair_table_sums = analysis._pair_table_sums

        def perturbed(s, a, n_increments):
            per_j = pair_table_sums(s, a, n_increments)
            per_j[1:] *= 1.0 + 1e-6  # j = 0 stays, or the cross-check raises
            return per_j

        monkeypatch.setattr(analysis, "_pair_table_sums", perturbed)
        one = identity_suite(1, seed=11, n_terms=200, threads=1)
        assert one["max_error_representation_residual"] <= 1e-12
        two = identity_suite(2, seed=11, n_terms=200, threads=1)
        assert two["max_error_representation_residual"] > 1e-8

    def test_nonfinite_pair_sum_raises(self, monkeypatch):
        # a comparison written a > b is False for a NaN, so NaN sums would
        # pass the gate unless they are caught
        def nan_sums(s, a, n_increments):
            return np.full(n_increments, np.nan + 0j)

        monkeypatch.setattr(analysis, "_pair_table_sums", nan_sums)
        with pytest.raises(QuadratureError, match="non-finite pair sum"):
            identity_suite(3, seed=11, n_terms=200, threads=1)

    def test_nonfinite_residual_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "simulate_increments",
                            lambda jm, n, p: (np.full(n, np.nan + 0j), 1.0))
        with pytest.raises(QuadratureError, match="non-finite identity residual"):
            identity_suite(1, seed=11, n_terms=200, threads=1)


def _pair_sums_and_oracle(alpha, atoms, seed, n_increments):
    """The production pair sums, the oracle's, and the bounds' scale
    sum over the pairs k < i of |a_i conj(a_k)|, on one random measure."""
    p = ModelParams(alpha=alpha, hurst=0.75)
    jm = build_jump_measure(alpha, 10.0, atoms, RngStream(seed, atoms))
    s = jm.locations
    a = kernel_r(s, p) * jm.values
    got = analysis._pair_table_sums(s, a, n_increments)
    want = pair_table_sums(s, a, n_increments)
    assert got.shape == (n_increments,)
    mag = np.abs(a)
    return got, want, float(mag[1:] @ np.cumsum(mag[:-1]))


# ids "16-<n_increments>" keep these cases' names stable; 16 was the j_max
# the sums took before they returned every j
N_INCREMENTS = [pytest.param(3, id="16-3"), pytest.param(64, id="16-64")]


class TestPairTableSums:
    # 1 atom has no pair and 2 have one; 3,000 atoms give 4.5 million pairs;
    # the level-m sum is the total over j
    @pytest.mark.parametrize("atoms", [1, 2, 181, 182, 1000, 3000])
    @pytest.mark.parametrize("n_increments", N_INCREMENTS)
    def test_matches_whole_table(self, atoms, n_increments):
        per_j, want, scale = _pair_sums_and_oracle(P.alpha, atoms, 5, n_increments)
        if atoms == 1:
            assert not np.any(per_j)
            return
        assert np.max(np.abs(per_j - want)) <= 1e-13 * scale
        assert abs(per_j.sum() - want.sum()) <= 1e-13 * scale

    # the prefix sums add over all atoms in one pass, so their rounding grows
    # with the atom count and with heavy atoms; measured at most 1.1e-14 of
    # the scale at every j < 64 and in the total, over alpha 0.8/1.2/1.6,
    # 2 to 3,000 atoms and seeds 0-5
    @pytest.mark.parametrize("alpha", [0.8, 1.6])
    @pytest.mark.parametrize("atoms", [182, 3000])
    @pytest.mark.parametrize("n_increments", N_INCREMENTS)
    def test_matches_whole_table_across_alpha(self, alpha, atoms, n_increments):
        per_j, want, scale = _pair_sums_and_oracle(alpha, atoms, 5, n_increments)
        assert np.max(np.abs(per_j - want)) <= 1e-13 * scale
        assert abs(per_j.sum() - want.sum()) <= 1e-13 * scale

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        alpha=st.sampled_from((0.8, 1.2, 1.6)),
        atoms=st.integers(1, 400),
        n_increments=st.integers(1, 80),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_whole_table_property(self, alpha, atoms, n_increments, seed):
        per_j, want, scale = _pair_sums_and_oracle(alpha, atoms, seed, n_increments)
        assert np.max(np.abs(per_j - want)) <= 1e-13 * scale
        assert abs(per_j.sum() - want.sum()) <= 1e-13 * scale

    # measured 0.06 and 0.18 MiB at both counts [1.8 MiB for a pair table
    # walked in blocks; prefix sums over a whole n_increments x atoms table
    # traced 3.1 and 8.9 MiB at n_increments 64]
    @pytest.mark.parametrize("atoms", [1000, 3000])
    def test_working_set(self, atoms):
        jm = build_jump_measure(P.alpha, 10.0, atoms, RngStream(5, atoms))
        a = kernel_r(jm.locations, P) * jm.values
        for n_increments in (3, 64):
            peak = traced_peak_mib(
                lambda: analysis._pair_table_sums(jm.locations, a, n_increments)
            )
            assert peak <= 2.5


class TestKernelLimitCheck:
    def test_deviations_shrink_like_one_over_n(self):
        devs = kernel_limit_check(1.0, -0.5, P, (64, 256, 1024, 4096))
        assert np.all(np.diff(devs) < 0.0)
        assert devs[-1] < 1e-3
        ratios = devs[:-1] / devs[1:]
        np.testing.assert_allclose(ratios, 4.0, rtol=0.2)

    def test_rejects_invalid_pairs(self):
        with pytest.raises(ParameterError):
            kernel_limit_check(1.0, 1.0, P, (64,))
        with pytest.raises(ParameterError):
            kernel_limit_check(1.0, 0.0, P, (64,))

    def test_rejects_lattice_gap(self):
        s = 0.5 + 2.0 * math.pi
        with pytest.raises(ParameterError, match="lattice"):
            kernel_limit_check(s, 0.5, P, (64,))
        with pytest.raises(ParameterError, match="lattice"):
            kernel_limit_check(s + 5e-10, 0.5, P, (64,))
        # a gap of pi is fine
        kernel_limit_check(0.5 + math.pi, 0.5, P, (64,))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEnvelopeQuadrature:
    def test_integrable_exponents_stabilize(self):
        vals = envelope_quadrature(0.7, 1.2, (50.0, 100.0))
        assert vals[1] / vals[0] - 1.0 < 0.05

    def test_borderline_exponents_keep_growing(self):
        vals = envelope_quadrature(0.4, 1.2, (50.0, 100.0))
        assert vals[1] / vals[0] - 1.0 > 0.2

    def test_band_divergence_rejected(self):
        with pytest.raises(QuadratureError, match="diverges"):
            envelope_quadrature(1.0, 1.2, (50.0,))

    def test_rejects_bad_exponents(self):
        with pytest.raises(ParameterError):
            envelope_quadrature(0.0, 1.2, (50.0,))
        with pytest.raises(ParameterError):
            envelope_quadrature(0.7, -1.0, (50.0,))

    def test_rejects_bad_windows(self):
        with pytest.raises(ParameterError):
            envelope_quadrature(0.7, 1.2, (0.5,))
        with pytest.raises(ParameterError):
            envelope_quadrature(0.7, 1.2, ())

    def test_custom_grid_agrees(self):
        fine = envelope_quadrature(0.7, 1.2, (20.0,))
        coarse = envelope_quadrature(
            0.7, 1.2, (20.0,), quad=QuadratureSpec(cells_per_decade=8)
        )
        assert coarse[0] == pytest.approx(fine[0], rel=0.05)

    def test_rejects_nan_exponents(self):
        for r1, r2 in ((math.nan, 1.2), (0.7, math.nan)):
            with pytest.raises(ParameterError):
                envelope_quadrature(r1, r2, (50.0,))

    def test_rejects_nonfinite_windows(self):
        for lams in ((math.inf,), (50.0, math.inf), (math.nan,)):
            with pytest.raises(ParameterError):
                envelope_quadrature(0.7, 1.2, lams)

    def test_rejects_windows_that_do_not_grow(self):
        for lams in ((50.0, 50.0), (100.0, 50.0)):
            with pytest.raises(ParameterError, match="strictly increasing"):
                envelope_quadrature(0.7, 1.2, lams)

    # lam = 1.5 leaves most outer cells without a far part; lam = 200 takes
    # the longest ladders
    @settings(max_examples=20)
    @given(
        r1=st.floats(0.05, 0.95),
        r2=st.floats(0.3, 2.5),
        cells_per_decade=st.sampled_from([4, 8, 16]),
        inner_cutoff=st.sampled_from([1e-8, 1e-4, 0.1]),
    )
    def test_matches_per_cell_loop(self, r1, r2, cells_per_decade, inner_cutoff):
        quad = QuadratureSpec(cells_per_decade=cells_per_decade, inner_cutoff=inner_cutoff)
        lams = (1.5, 200.0)
        np.testing.assert_allclose(
            envelope_quadrature(r1, r2, lams, quad),
            envelope_quadrature_loop(r1, r2, lams, quad),
            rtol=1e-13,
            atol=0.0,
        )

    @pytest.mark.parametrize("r1", [0.7, 0.4])
    @pytest.mark.parametrize("lams", [(50.0, 100.0), (2.0, 7.0, 50.0)])
    def test_one_pass_matches_single_window_passes(self, r1, lams):
        together = envelope_quadrature(r1, 1.2, lams)
        alone = [envelope_quadrature(r1, 1.2, (lam,))[0] for lam in lams]
        np.testing.assert_allclose(together, alone, rtol=1e-15, atol=0.0)
        assert together[-1] == alone[-1]

    def test_working_set_is_blocked(self):
        # the far part holds one block of rows at a time, never every row
        peak = traced_peak_mib(lambda: envelope_quadrature(0.7, 1.2, (50.0, 100.0)))
        assert peak <= 4.0


def blas_threads():
    blas = analysis._openblas_threads()
    if blas is None:
        pytest.skip("numpy loads no scipy-openblas library")
    return blas


class TestThreadCountInvariance:
    """Reports at threads=1 (BLAS at its own thread count) and threads=2
    (BLAS held at one thread) are bit-identical. At 20000 atoms and n = 256
    each block's product is 16 x 4096 by 4096 x 16, which OpenBLAS may
    split across threads."""

    def test_lln(self):
        a, _ = run_lln_experiment(P, 5.0, 20000, (64, 128, 256), 50, seed=21, threads=1)
        b, _ = run_lln_experiment(P, 5.0, 20000, (64, 128, 256), 50, seed=21, threads=2)
        np.testing.assert_array_equal(a, b)

    def test_clt(self):
        a, _ = run_clt_experiment(P, 5.0, 20000, 256, 4, seed=22, threads=1)
        b, _ = run_clt_experiment(P, 5.0, 20000, 256, 4, seed=22, threads=2)
        np.testing.assert_array_equal(a, b)

    def test_identity_suite(self):
        a = identity_suite(4, seed=23, n_terms=300, threads=1)
        b = identity_suite(4, seed=23, n_terms=300, threads=2)
        assert a == b

    def test_increments_independent_of_blas_threads(self):
        get, put = blas_threads()
        jm = build_jump_measure(1.2, 5.0, 20000, RngStream(24, 0))
        before = get()
        put(2)
        try:
            two, u_two = simulate_increments(jm, 512, P)
            put(1)
            one, u_one = simulate_increments(jm, 512, P)
        finally:
            put(before)
        np.testing.assert_array_equal(one, two)
        assert u_one == u_two


class TestParallelMapBlasHold:
    def test_one_blas_thread_in_workers_then_restored(self):
        get, put = blas_threads()
        before = get()
        put(2)
        try:
            assert analysis._parallel_map(lambda i: get(), 4, 2) == [1, 1, 1, 1]
            assert get() == 2
            # a single worker leaves BLAS alone
            assert analysis._parallel_map(lambda i: get(), 3, 1) == [2, 2, 2]
            with pytest.raises(ZeroDivisionError):
                analysis._parallel_map(lambda i: 1 / 0, 2, 2)
            assert get() == 2
        finally:
            put(before)

    def test_without_openblas_the_count_is_left_alone(self, monkeypatch):
        get, put = blas_threads()
        before = get()
        put(2)
        monkeypatch.setattr(analysis, "_openblas_threads", lambda: None)
        try:
            assert analysis._parallel_map(lambda i: get(), 3, 2) == [2, 2, 2]
            assert get() == 2
        finally:
            put(before)

    def test_nested_pool_keeps_the_hold(self):
        get, put = blas_threads()
        before = get()
        put(2)
        try:
            def item(i):
                analysis._parallel_map(lambda j: None, 2, 2)
                return get()

            assert analysis._parallel_map(item, 2, 2) == [1, 1]
            assert get() == 2
        finally:
            put(before)

    def test_overlapping_pools_under_stress(self):
        get, put = blas_threads()
        before = get()
        interval = sys.getswitchinterval()
        put(2)
        sys.setswitchinterval(1e-6)
        seen = []
        try:
            def caller():
                for _ in range(20):
                    seen.extend(analysis._parallel_map(lambda i: get(), 3, 3))

            callers = [threading.Thread(target=caller) for _ in range(6)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in callers)
            assert len(seen) == 6 * 20 * 3 and set(seen) == {1}
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
            put(before)
