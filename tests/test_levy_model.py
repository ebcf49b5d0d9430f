"""Unit tests for atomic noise realizations and pathwise integrators."""

import logging
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from harmstable import (
    JumpMeasure,
    ModelParams,
    ParameterError,
    QuadratureSpec,
    RngStream,
    SingularityError,
    build_jump_measure,
    condition_value,
    double_integrate,
    integrate_qv,
    kernel_r,
    poisson_arrivals,
    psi,
    series_unit_scale,
)
from harmstable.levy_model import (
    _PAIR_BLOCK,
    _UNIT_SERIES_SCALE,
    _pair_blocks,
    estimate_series_unit_scale,
)
from oracles import traced_peak_mib


def three_atoms() -> JumpMeasure:
    return JumpMeasure(
        locations=np.array([-1.0, 0.5, 2.0]),
        values=np.array([1.0 + 2.0j, -0.5j, 0.25 + 0.0j]),
        half_width=2.5,
        calibration=1.0,
    )


class GridFirstDraw:
    """Generator whose first uniform draw, the atom locations, is rounded to
    a 2^-3 grid so that locations tie; every other draw is the real one."""

    def __init__(self, master_seed: int):
        self._g = RngStream(master_seed).generator
        self._first = True

    def __getattr__(self, name):
        return getattr(self._g, name)

    def uniform(self, *args):
        x = self._g.uniform(*args)
        if self._first:
            self._first = False
            x = np.round(x * 8.0) / 8.0
        return x


def tied_stream(master_seed: int) -> SimpleNamespace:
    """Stream stand-in handing out a GridFirstDraw generator."""
    return SimpleNamespace(generator=GridFirstDraw(master_seed))


def stable_sort_reference(alpha, half_width, n_terms, rng, calibration):
    """The draws of build_jump_measure, sorted with kind="stable" on every
    pass: (locations, values, resampling warnings)."""
    g = rng.generator
    locations = g.uniform(-half_width, half_width, n_terms)
    arrivals = poisson_arrivals(n_terms, rng)
    angles = g.uniform(0.0, 2.0 * np.pi, n_terms)
    values = calibration * arrivals ** (-1.0 / alpha) * np.exp(1j * angles)
    messages = []
    while True:
        order = np.argsort(locations, kind="stable")
        ls = locations[order]
        dup = np.flatnonzero(np.diff(ls) == 0.0)
        if dup.size == 0:
            return ls, values[order], messages
        offenders = order[dup + 1]
        messages.append(f"resampling {offenders.size} tied atom location(s) at {ls[dup][:4]}")
        locations[offenders] = g.uniform(-half_width, half_width, offenders.size)


class TestJumpMeasureValidation:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ParameterError):
            JumpMeasure(np.zeros(3), np.zeros(4, complex), 1.0, 1.0)

    def test_rejects_unsorted(self):
        # a NaN location is not strictly increasing, wherever it sits
        for locations in ([0.5, 0.5], [0.0, np.nan, 0.5], [np.nan, 0.5], [0.0, np.nan]):
            with pytest.raises(ParameterError):
                JumpMeasure(np.array(locations), np.ones(len(locations), complex), 1.0, 1.0)

    def test_rejects_out_of_window(self):
        # nothing lies inside a NaN window, and a NaN lies inside none
        for locations, half_width in (([-3.0, 0.5], 1.0), ([np.nan], 1.0), ([-0.5, 0.5], np.nan)):
            with pytest.raises(ParameterError):
                JumpMeasure(np.array(locations), np.ones(len(locations), complex), half_width, 1.0)


class TestBuildJumpMeasure:
    def test_deterministic(self):
        a = build_jump_measure(1.2, 10.0, 500, RngStream(11, 3))
        b = build_jump_measure(1.2, 10.0, 500, RngStream(11, 3))
        np.testing.assert_array_equal(a.locations, b.locations)
        np.testing.assert_array_equal(a.values, b.values)

    def test_layout(self):
        jm = build_jump_measure(1.2, 10.0, 500, RngStream(11, 4))
        assert jm.n_terms == 500 and jm.locations.size == 500
        assert np.all(np.diff(jm.locations) > 0.0)
        assert np.all(np.abs(jm.locations) <= 10.0)
        assert np.all(np.abs(jm.values) > 0.0)

    def test_default_calibration(self):
        jm = build_jump_measure(1.2, 10.0, 50, RngStream(11, 5))
        expected = 20.0 ** (1.0 / 1.2) / series_unit_scale(1.2)
        assert jm.calibration == pytest.approx(expected, rel=1e-15)

    def test_largest_atom_is_calibrated_first_arrival(self):
        jm = build_jump_measure(1.2, 10.0, 200, RngStream(11, 6))
        arrivals = (jm.calibration / np.abs(jm.values)) ** 1.2
        assert np.abs(jm.values).max() == pytest.approx(
            jm.calibration * arrivals.min() ** (-1.0 / 1.2)
        )

    def test_tied_locations_match_stable_sort(self, caplog):
        with caplog.at_level(logging.WARNING, logger="harmstable.levy_model"):
            jm = build_jump_measure(1.2, 5.0, 400, tied_stream(19))
        locations, values, messages = stable_sort_reference(
            1.2, 5.0, 400, tied_stream(19), jm.calibration
        )
        assert messages  # 400 draws on 81 grid points must tie
        assert [r.getMessage() for r in caplog.records] == messages
        np.testing.assert_array_equal(bits(jm.locations), bits(locations))
        np.testing.assert_array_equal(bits(jm.values), bits(values))

    def test_untied_build_matches_stable_sort(self):
        jm = build_jump_measure(1.2, 50.0, 100_000, RngStream(19, 1))
        locations, values, messages = stable_sort_reference(
            1.2, 50.0, 100_000, RngStream(19, 1), jm.calibration
        )
        assert messages == []
        np.testing.assert_array_equal(bits(jm.locations), bits(locations))
        np.testing.assert_array_equal(bits(jm.values), bits(values))

    def test_rejects_bad_args(self):
        r = RngStream(11, 0)
        with pytest.raises(ParameterError):
            build_jump_measure(2.0, 10.0, 50, r)
        with pytest.raises(ParameterError):
            build_jump_measure(1.2, 0.0, 50, r)
        for half_width in (float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                build_jump_measure(1.2, half_width, 10, r)
        with pytest.raises(ParameterError):
            build_jump_measure(1.2, 10.0, 0, r)


def textbook_scale(alpha: float) -> float:
    # scale of the real part of the convergent unit series, known in closed
    # form through the stable tail constant and the angular moment
    if abs(alpha - 1.0) < 1e-12:
        k = np.pi / 2.0
    else:
        k = gamma_fn(2.0 - alpha) * np.cos(np.pi * alpha / 2.0) / (1.0 - alpha)
    w = gamma_fn((alpha + 1.0) / 2.0) / (np.sqrt(np.pi) * gamma_fn(1.0 + alpha / 2.0))
    return (k * w) ** (1.0 / alpha)


class TestSeriesUnitScale:
    def test_table_matches_closed_form(self):
        for alpha, table_value in _UNIT_SERIES_SCALE.items():
            assert table_value == pytest.approx(textbook_scale(alpha), rel=0.01), alpha

    def test_matches_textbook_form(self):
        for alpha in np.linspace(0.05, 1.95, 39):
            assert series_unit_scale(alpha) == pytest.approx(
                textbook_scale(alpha), rel=1e-13
            ), alpha

    def test_exactly_one_at_alpha_one(self):
        assert series_unit_scale(1.0) == 1.0

    def test_no_branch_next_to_alpha_one(self):
        for alpha in (1.0 - 1e-9, 1.0 + 1e-9):
            assert abs(series_unit_scale(alpha) - 1.0) <= 1e-8

    def test_within_monte_carlo_record(self):
        # the frozen table is an independent estimate; measured max 0.34%
        for alpha, table_value in _UNIT_SERIES_SCALE.items():
            assert series_unit_scale(alpha) == pytest.approx(table_value, rel=0.004), alpha

    def test_reduced_estimator_agrees_with_table(self):
        est = estimate_series_unit_scale(1.2, n_terms=500, replications=2000)
        assert est == pytest.approx(_UNIT_SERIES_SCALE[1.2], rel=0.02)

    def test_reduced_estimator_agrees_off_table(self):
        assert 1.25 not in _UNIT_SERIES_SCALE
        est = estimate_series_unit_scale(1.25, n_terms=500, replications=2000)
        assert est == pytest.approx(series_unit_scale(1.25), rel=0.02)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, float("nan")])
    def test_rejects_alpha_outside_range(self, alpha):
        with pytest.raises(ParameterError):
            series_unit_scale(alpha)


class TestPathwiseIntegrals:
    def test_integrate_qv_hand_value(self):
        got = integrate_qv(three_atoms(), lambda s: s * s)
        assert got == pytest.approx(5.3125, rel=1e-15)

    def test_quadratic_variation_hand_value(self):
        got = integrate_qv(three_atoms(), lambda s: np.ones_like(s))
        assert got == pytest.approx(5.3125, rel=1e-15)

    def test_double_integrate_hand_value(self):
        got = double_integrate(three_atoms(), lambda s, u: s + 1j * u)
        assert got == pytest.approx(-1.0625 - 0.25j, rel=1e-15)

    def test_double_integrate_stays_below_diagonal(self):
        def guarded(s, u):
            assert np.all(u < s)
            return np.ones(np.broadcast(s, u).shape, complex)

        double_integrate(build_jump_measure(1.2, 5.0, 400, RngStream(12, 0)), guarded)

    def test_double_integrate_matches_direct_sum_across_chunks(self):
        # 3000 atoms walk 275 pair blocks inside double_integrate
        jm = build_jump_measure(1.2, 5.0, 3000, RngStream(12, 1))
        f = lambda s, u: np.exp(1j * (s - u)) / (1.0 + np.abs(s * u))
        got = double_integrate(jm, f)
        direct = 0j
        z, s = jm.values, jm.locations
        for i0 in range(1, jm.n_terms, 500):
            rows = np.arange(i0, min(jm.n_terms, i0 + 500))
            vals = f(s[rows][:, None], s[None, :])
            vals[np.arange(s.size)[None, :] >= rows[:, None]] = 0.0
            direct += complex(vals @ np.conj(z) @ z[rows])
        assert got == pytest.approx(direct, rel=1e-12)

    def test_double_integrate_rejects_misshapen_kernel(self):
        # an (m, 1) column would broadcast against the pairs into an m x m sum
        with pytest.raises(ParameterError, match="shape"):
            double_integrate(three_atoms(), lambda s, u: (s * u)[:, None])

    def test_double_integrate_broadcasts_scalar_kernel(self):
        jm = three_atoms()
        z = jm.values
        want = sum(2.0 * np.conj(z[k]) * z[i] for i in range(3) for k in range(i))
        got = double_integrate(jm, lambda s, u: 2.0)
        assert got == pytest.approx(want, rel=1e-15)

    def test_single_integrals_reject_misshapen_kernel(self):
        # an (n, 1) column would broadcast against the atoms into an n x n sum
        with pytest.raises(ParameterError, match="shape"):
            integrate_qv(three_atoms(), lambda s: (s * s)[:, None])
        with pytest.raises(ParameterError, match="shape"):
            integrate_qv(three_atoms(), lambda s: np.ones((1, 3)))

    def test_single_integrals_broadcast_scalar_kernel(self):
        assert integrate_qv(three_atoms(), lambda s: 2.0) == pytest.approx(10.625, rel=1e-15)

    def test_empty_and_single_atom(self):
        empty = JumpMeasure(np.array([]), np.array([], complex), 1.0, 1.0)
        single = JumpMeasure(np.array([0.3]), np.array([2.0 + 0j]), 1.0, 1.0)
        assert integrate_qv(empty, lambda s: s) == 0.0
        assert integrate_qv(empty, lambda s: np.ones_like(s)) == 0.0
        assert double_integrate(empty, lambda s, u: s) == 0j
        assert double_integrate(single, lambda s, u: s) == 0j
        assert integrate_qv(single, lambda s: np.ones_like(s)) == pytest.approx(4.0)

    def test_nonfinite_kernel_reports_location(self):
        with pytest.raises(SingularityError, match="0.5"):
            integrate_qv(three_atoms(), lambda s: np.where(s == 0.5, np.nan, 1.0))
        with pytest.raises(SingularityError):
            double_integrate(
                three_atoms(), lambda s, u: np.where(s > 1.0, np.inf, 1.0)
            )

    def test_negative_qv_integrand_rejected(self):
        with pytest.raises(ParameterError):
            integrate_qv(three_atoms(), lambda s: s)


class TestPairBlocks:
    # 181 atoms give 16,290 pairs (one short block), 182 give 16,471 (just
    # past one block) and 1,000 give 499,500 (30 full blocks and a remainder)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 181, 182, 183, 1000])
    def test_walks_tril_indices_in_order(self, n):
        blocks = list(_pair_blocks(n))
        assert all(i.size == k.size <= _PAIR_BLOCK for i, k in blocks)
        assert all(i.size == _PAIR_BLOCK for i, _ in blocks[:-1])
        want_i, want_k = np.tril_indices(n, -1)
        got_i = np.concatenate([i for i, _ in blocks] or [want_i])
        got_k = np.concatenate([k for _, k in blocks] or [want_k])
        np.testing.assert_array_equal(got_i, want_i)
        np.testing.assert_array_equal(got_k, want_k)

    # measured 1.7 MiB at both sizes [32.4 and 151.8 MiB with a dense
    # rows x atoms grid per block of rows]
    @pytest.mark.parametrize("atoms", [1000, 3000])
    def test_double_integrate_working_set(self, atoms):
        p = ModelParams(alpha=1.2, hurst=0.75)
        jm = build_jump_measure(p.alpha, 10.0, atoms, RngStream(62, atoms))
        f = lambda x, y: kernel_r(x, p) * np.conj(kernel_r(y, p))
        assert traced_peak_mib(lambda: double_integrate(jm, f)) <= 2.5


class TestConditionValue:
    def test_separable_reference_integrates_to_one(self):
        # f is the envelope product psi(s) psi(u), psi = psi(., 2/alpha, alpha):
        # |f|^alpha integrates to 1 and the log factor vanishes, so the
        # full-plane value is exactly 1; the grid sees almost all of it
        alpha = 1.2
        f = lambda s, u: psi(s, 2.0 / alpha, alpha) * psi(u, 2.0 / alpha, alpha)
        quad = QuadratureSpec(outer_cutoff=200.0, cells_per_decade=16)
        got = condition_value(f, alpha, quad)
        assert got == pytest.approx(1.0, rel=2e-2)
        assert got < 1.0

    def test_monotone_in_cutoff(self):
        alpha = 1.2
        f = lambda s, u: np.exp(-np.abs(s) - np.abs(u))
        vals = [
            condition_value(f, alpha, QuadratureSpec(outer_cutoff=lam)) for lam in (20.0, 50.0)
        ]
        assert vals[0] < vals[1]

    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            condition_value(lambda s, u: 0.0 * s * u, 2.5, QuadratureSpec())


def bits(a: np.ndarray) -> np.ndarray:
    """The array's float64 words, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)
