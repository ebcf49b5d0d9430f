"""Unit tests for atomic noise realizations and pathwise integrators."""

import logging
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.stats import ks_2samp, kstest

from harmstable import (
    JumpMeasure,
    ModelParams,
    ParameterError,
    QuadratureError,
    QuadratureSpec,
    RngStream,
    SingularityError,
    build_jump_measure,
    condition_value,
    double_integrate,
    integrate_qv,
    kernel_h,
    kernel_r,
    poisson_arrivals,
    psi,
    series_unit_scale,
)
from harmstable.levy_model import (
    _UNIT_SERIES_SCALE,
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
    pass: (locations, values, resampling warnings). The locations are the
    sorted first uniform draw, each tie redrawn at its later copy; given
    T = Gamma_{N+1}, drawn after the U_i, the arrivals are T (1 - U_i) in
    location order; the phase of angle theta is ((1 - t^2) + 2it) / (1 + t^2)
    with t = tan(theta/2)."""
    g = rng.generator
    locations = np.sort(g.uniform(-half_width, half_width, n_terms), kind="stable")
    messages = []
    while True:
        tied = np.flatnonzero(np.diff(locations) == 0.0) + 1
        if tied.size == 0:
            break
        messages.append(f"resampling {tied.size} tied atom location(s) at {locations[tied][:4]}")
        locations[tied] = g.uniform(-half_width, half_width, tied.size)
        locations = np.sort(locations, kind="stable")
    arrivals = (1.0 - g.random(n_terms)) * g.standard_gamma(n_terms + 1)
    scale = calibration * arrivals ** (-1.0 / alpha)
    t = np.tan(0.5 * g.uniform(0.0, 2.0 * np.pi, n_terms))
    scale /= 1.0 + t * t
    values = np.empty(n_terms, dtype=complex)
    values.real = (1.0 - t * t) * scale
    values.imag = 2.0 * t * scale
    return locations, values, messages


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

    def test_rejects_bad_half_width_when_empty(self):
        # no location bounds the window of an empty measure
        for half_width in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ParameterError, match="half_width"):
                JumpMeasure(np.array([]), np.array([], complex), half_width, 1.0)


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

    def test_locations_are_the_sorted_first_draw(self):
        jm = build_jump_measure(1.2, 50.0, 100_000, RngStream(19, 2))
        first = RngStream(19, 2).generator.uniform(-50.0, 50.0, 100_000)
        np.testing.assert_array_equal(bits(jm.locations), bits(np.sort(first)))

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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_calibration_raises(self):
        # 40^(1/0.005) = 40^200 overflows a float
        with pytest.raises(SingularityError, match="calibration"):
            build_jump_measure(0.005, 20.0, 100, RngStream(0, 0))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_atom_value_raises(self):
        # the calibration 1.8e160 is finite, but this stream's smallest
        # arrival is 0.00606, and 0.00606^(-100) = 5.3e221 takes the product
        # past 1.8e308
        with pytest.raises(SingularityError, match="atom value"):
            build_jump_measure(0.01, 20.0, 100, RngStream(4, 0))


class TestDrawLaw:
    """The arrivals and phases of 2,000 fifty-atom streams against the law of
    the series: sorted Poisson arrivals, each paired with a uniform location
    and a uniform angle. Every band is the largest reading over master seeds
    0-19 (each against the reference streams at the seed plus 1,000), rounded
    up; seed 0 is the one tested."""

    alpha, n_terms, streams = 1.2, 50, 2000

    @pytest.fixture(scope="class")
    def draws(self):
        measures = [
            build_jump_measure(self.alpha, 10.0, self.n_terms, RngStream(0, i))
            for i in range(self.streams)
        ]
        return measures[0].calibration, np.array([jm.values for jm in measures])

    @pytest.mark.parametrize("k, band", [(1, 0.04), (5, 0.045), (50, 0.05)])
    def test_arrivals_follow_poisson_arrivals(self, draws, k, band):
        # KS distance of Gamma_k over the 20 seeds: 0.018-0.040 (k = 1),
        # 0.012-0.044 (k = 5), 0.010-0.048 (k = 50)
        calibration, values = draws
        arrivals = np.sort((calibration / np.abs(values)) ** self.alpha, axis=1)
        reference = np.array(
            [poisson_arrivals(self.n_terms, RngStream(1000, i)) for i in range(self.streams)]
        )
        ks = ks_2samp(arrivals[:, k - 1], reference[:, k - 1]).statistic
        assert ks <= band

    def test_largest_atom_sits_anywhere(self, draws):
        # chi-square of its position over the 50 sorted locations, 49 degrees
        # of freedom: 29.7-63.6 over the 20 seeds
        counts = np.bincount(np.argmax(np.abs(draws[1]), axis=1), minlength=self.n_terms)
        expected = self.streams / self.n_terms
        assert np.sum((counts - expected) ** 2 / expected) <= 65.0

    def test_moduli_are_the_weights(self, draws):
        # the weights calibration * (T (1 - U_i))^(-1/alpha) from each
        # stream's own draws; the phase moved the modulus by at most 3 ulp
        # over the 20 seeds
        calibration, values = draws
        for i in range(self.streams):
            g = RngStream(0, i).generator
            g.uniform(-10.0, 10.0, self.n_terms)
            arrivals = (1.0 - g.random(self.n_terms)) * g.standard_gamma(self.n_terms + 1)
            weights = calibration * arrivals ** (-1.0 / self.alpha)
            assert np.all(np.abs(np.abs(values[i]) - weights) <= 4.0 * np.spacing(weights))

    def test_angles_are_uniform(self, draws):
        # KS distance of the 100,000 angles: 0.0016-0.0047 over the 20 seeds
        turns = np.angle(draws[1]).ravel() / (2.0 * np.pi) % 1.0
        assert kstest(turns, "uniform").statistic <= 0.005


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
    def test_quadratic_variation_hand_value(self):
        assert integrate_qv(three_atoms()) == pytest.approx(5.3125, rel=1e-15)

    def test_double_integrate_hand_value(self):
        got = double_integrate(three_atoms(), lambda s, u: s + 1j * u)
        assert got == pytest.approx(-1.0625 - 0.25j, rel=1e-15)

    def test_double_integrate_stays_below_diagonal(self):
        def guarded(s, u):
            assert np.all(u < s)
            return np.ones(np.broadcast(s, u).shape, complex)

        double_integrate(build_jump_measure(1.2, 5.0, 400, RngStream(12, 0)), guarded)

    def test_double_integrate_matches_direct_sum_across_chunks(self):
        # 3000 atoms walk 24 row tiles of 128, so 276 rectangle tiles and 24
        # diagonal tiles, inside double_integrate
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

    def test_empty_and_single_atom(self):
        empty = JumpMeasure(np.array([]), np.array([], complex), 1.0, 1.0)
        single = JumpMeasure(np.array([0.3]), np.array([2.0 + 0j]), 1.0, 1.0)
        assert integrate_qv(empty) == 0.0
        assert double_integrate(empty, lambda s, u: s) == 0j
        assert double_integrate(single, lambda s, u: s) == 0j
        assert integrate_qv(single) == pytest.approx(4.0)

    def test_nonfinite_kernel_reports_location(self):
        # the pair (2.0, -1.0) is the first that the kernel makes infinite
        with pytest.raises(SingularityError, match=r"at \(2\.0, -1\.0\)"):
            double_integrate(
                three_atoms(), lambda s, u: np.where(s > 1.0, np.inf, 1.0)
            )

    def test_nonfinite_kernel_in_rectangle_tile_reports_pair(self):
        # atoms 200 and 5 meet in a rectangle tile (rows 128-255, columns
        # 0-127), where the kernel sees 2-d broadcast views
        jm = build_jump_measure(1.2, 5.0, 300, RngStream(12, 2))
        s = jm.locations
        f = lambda x, y: np.where((x == s[200]) & (y == s[5]), np.inf, 1.0)
        with pytest.raises(SingularityError) as err:
            double_integrate(jm, f)
        assert f"({float(s[200])!r}, {float(s[5])!r})" in str(err.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_qv_raises(self):
        # |v_i|^2 of these atoms overflows
        jm = JumpMeasure(np.array([-1.0, 0.5]), np.array([1e200 + 0j, 1e200 + 0j]), 2.0, 1.0)
        with pytest.raises(SingularityError, match="non-finite"):
            integrate_qv(jm)


class TestPairBlocks:
    # 127 atoms fill one short diagonal tile, 128 one full tile and 129 add a
    # rectangle and a one-atom diagonal tile; 181-183 end on a short row
    # tile of 53-55 atoms and 1,000 atoms walk 8 row tiles, the last of 104
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 127, 128, 129, 181, 182, 183, 257, 1000])
    def test_kernel_sees_each_pair_once(self, n):
        jm = JumpMeasure(np.arange(n, dtype=float), np.ones(n, complex), float(max(n, 1)), 1.0)
        seen = []

        def recording(s, u):
            s, u = np.broadcast_arrays(s, u)
            seen.append(np.searchsorted(jm.locations, s.ravel()) * n
                        + np.searchsorted(jm.locations, u.ravel()))
            return np.ones(s.shape)

        got = double_integrate(jm, recording)
        want_i, want_k = np.tril_indices(n, -1)
        np.testing.assert_array_equal(np.sort(np.concatenate(seen or [[]])), want_i * n + want_k)
        assert got == n * (n - 1) // 2

    # 127 atoms fill one short diagonal tile and 128 one full tile; 129 and
    # 257 end on a one-atom row tile; 1,000 atoms walk 28 rectangle tiles
    @pytest.mark.parametrize("atoms", [127, 128, 129, 257, 1000])
    def test_scalar_kernel_matches_array_kernel_and_triangle_sum(self, atoms):
        # a scalar kernel adds each rectangle as vals (sum z_I)(sum conj z_K),
        # an array kernel as z_I @ (vals @ conj z_K); the dense lower triangle
        # adds the same pairs in neither order
        jm = build_jump_measure(1.2, 10.0, atoms, RngStream(63, atoms))
        z = jm.values
        scalar = double_integrate(jm, lambda s, u: 1.0)
        array = double_integrate(jm, lambda s, u: np.full(np.broadcast(s, u).shape, 1.0))
        triangle = complex(z @ (np.tril(np.ones((atoms, atoms)), -1) @ np.conj(z)))
        mag = np.abs(z)
        scale = float(mag[1:] @ np.cumsum(mag[:-1]))
        assert abs(scalar - array) <= 1e-13 * scale
        assert abs(scalar - triangle) <= 1e-13 * scale

    def test_nonfinite_scalar_kernel_names_a_pair(self):
        jm = build_jump_measure(1.2, 5.0, 300, RngStream(12, 2))
        s = jm.locations
        # the first diagonal tile meets the pair (s_1, s_0) first
        with pytest.raises(SingularityError) as err:
            double_integrate(jm, lambda x, y: np.inf)
        assert f"({float(s[1])!r}, {float(s[0])!r})" in str(err.value)
        # a scalar for a rectangle tile (rows 128-255, columns 0-127) names
        # the tile's first pair
        with pytest.raises(SingularityError) as err:
            double_integrate(jm, lambda x, y: np.nan if np.ndim(x) == 2 else 1.0)
        assert f"({float(s[128])!r}, {float(s[0])!r})" in str(err.value)

    def test_kernel_of_one_argument_broadcasts_over_a_tile(self):
        # on a rectangle tile's views s_I[:, None] and s_K[None, :] a kernel of
        # u alone returns one row, which stands for every row of the tile
        jm = build_jump_measure(1.2, 5.0, 300, RngStream(12, 3))
        got = double_integrate(jm, lambda s, u: np.cos(u))
        want = double_integrate(jm, lambda s, u: np.cos(u) + 0.0 * s)
        assert got == pytest.approx(want, rel=1e-14)

    # measured 1.0 MiB at both sizes [1.3 MiB with the kernel evaluated on
    # broadcast copies of the tile's coordinates; 32.4 and 151.8 MiB with a
    # dense rows x atoms grid per block of rows]
    @pytest.mark.parametrize("atoms", [1000, 3000])
    def test_double_integrate_working_set(self, atoms):
        p = ModelParams(alpha=1.2, hurst=0.75)
        jm = build_jump_measure(p.alpha, 10.0, atoms, RngStream(62, atoms))
        f = lambda x, y: kernel_r(x, p) * np.conj(kernel_r(y, p))
        assert traced_peak_mib(lambda: double_integrate(jm, f)) <= 2.5


class TestConditionValue:
    def test_separable_reference_integrates_to_one(self):
        # f is the envelope product psi(s) psi(u):
        # |f|^alpha integrates to 1 and the log factor vanishes, so the
        # full-plane value is exactly 1; the grid sees almost all of it
        alpha = 1.2
        f = lambda s, u: psi(s, alpha) * psi(u, alpha)
        (got,) = condition_value(f, alpha, (200.0,), QuadratureSpec(cells_per_decade=16))
        assert got == pytest.approx(1.0, rel=2e-2)
        assert got < 1.0

    @pytest.mark.filterwarnings("error")
    def test_nan_kernel_value_raises(self):
        # a NaN |f| is neither zero nor positive; it reaches the grid's
        # non-finite check rather than counting as a zero cell
        f = lambda s, u: np.where(s > u, np.nan, 1.0)
        with pytest.raises(QuadratureError, match="non-finite"):
            condition_value(f, 1.2, (20.0,))

    def test_monotone_in_cutoff(self):
        alpha = 1.2
        f = lambda s, u: np.exp(-np.abs(s) - np.abs(u))
        vals = [condition_value(f, alpha, (lam,))[0] for lam in (20.0, 50.0)]
        assert vals[0] < vals[1]
        assert np.all(np.diff(condition_value(f, alpha, (20.0, 50.0))) > 0.0)

    @pytest.mark.parametrize("lams", [(50.0, 100.0), (2.0, 7.0, 50.0)])
    def test_one_pass_matches_single_window_passes(self, lams):
        p = ModelParams(alpha=1.2, hurst=0.75)
        f = lambda s, u: kernel_h(s, u, p)
        together = condition_value(f, p.alpha, lams)
        alone = [condition_value(f, p.alpha, (lam,))[0] for lam in lams]
        np.testing.assert_allclose(together, alone, rtol=1e-15, atol=0.0)
        assert together[-1] == alone[-1]

    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            condition_value(lambda s, u: 0.0 * s * u, 2.5, (50.0,))

    @pytest.mark.parametrize(
        "lams", [(), (0.5,), (np.nan,), (np.inf,), (50.0, 50.0), (100.0, 50.0)]
    )
    def test_rejects_bad_windows(self, lams):
        with pytest.raises(ParameterError):
            condition_value(lambda s, u: np.exp(-np.abs(s) - np.abs(u)), 1.2, lams)


def bits(a: np.ndarray) -> np.ndarray:
    """The array's float64 words, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)
