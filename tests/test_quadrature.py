"""Unit tests for the singularity-aware log-spaced quadrature."""

from dataclasses import replace

import numpy as np
import pytest

from harmstable import (
    ParameterError,
    QuadratureError,
    QuadratureSpec,
    axis_cells,
    grid_integral_2d,
)


class TestQuadratureSpec:
    def test_defaults(self):
        q = QuadratureSpec()
        assert q.outer_cutoff == 50.0
        assert q.singular_points == (0.0, -1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inner_cutoff": 2.0},
            {"outer_cutoff": 0.5},
            {"inner_cutoff": 0.0},
            {"cells_per_decade": 2},
        ],
    )
    def test_rejects_bad_layout(self, kwargs):
        with pytest.raises(ParameterError):
            QuadratureSpec(**kwargs)


class TestAxisCells:
    def test_cells_tile_without_overlap(self):
        mid, w = axis_cells(QuadratureSpec())
        lo, hi = mid - 0.5 * w, mid + 0.5 * w
        assert np.all(w > 0.0)
        assert np.all(lo[1:] >= hi[:-1] - 1e-12)

    def test_cells_respect_cutoffs_and_holes(self):
        q = QuadratureSpec(outer_cutoff=30.0, inner_cutoff=1e-6)
        mid, w = axis_cells(q)
        lo, hi = mid - 0.5 * w, mid + 0.5 * w
        assert np.all(lo >= -30.0 - 1e-12) and np.all(hi <= 30.0 + 1e-12)
        for p in q.singular_points:
            # slack of 1e-12 absorbs midpoint/width reconstruction rounding
            inside = (lo < p + 1e-6 - 1e-12) & (hi > p - 1e-6 + 1e-12)
            assert not np.any(inside)

    def test_enlarging_cutoff_only_adds_cells(self):
        small = axis_cells(QuadratureSpec(outer_cutoff=20.0))[0]
        large = axis_cells(QuadratureSpec(outer_cutoff=80.0))[0]
        assert set(np.round(small, 12)).issubset(set(np.round(large, 12)))


class TestGridIntegral2d:
    def test_separable_product(self):
        # integrand exp(-|s|-|u|) integrates to (2(1-e^-L))^2 up to grid error
        q = QuadratureSpec(outer_cutoff=30.0, cells_per_decade=16,
                           singular_points=(0.0,))
        (got,) = grid_integral_2d(lambda s, u: np.exp(-np.abs(s) - np.abs(u)), q, (30.0,))
        assert got == pytest.approx(4.0, rel=5e-3)

    def test_integrable_singularity(self):
        # |su|^{-1/2} on [-1,1]^2 integrates to 16; the hole removes only
        # a vanishing sliver
        q = QuadratureSpec(outer_cutoff=1.0000001, inner_cutoff=1e-10,
                           cells_per_decade=24, singular_points=(0.0,))
        (got,) = grid_integral_2d(
            lambda s, u: np.abs(s * u) ** -0.5, q, (q.outer_cutoff,), label="root singularity"
        )
        assert got == pytest.approx(16.0, rel=2e-3)

    def test_monotone_in_cutoff(self):
        f = lambda s, u: 1.0 / (1.0 + s * s + u * u) ** 1.5
        vals = [
            grid_integral_2d(f, QuadratureSpec(outer_cutoff=lam), (lam,))[0]
            for lam in (10.0, 50.0, 200.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_refinement_converges(self):
        f = lambda s, u: np.exp(-(s * s) - (u * u))
        (coarse,) = grid_integral_2d(
            f, QuadratureSpec(cells_per_decade=8, singular_points=(0.0,)), (50.0,)
        )
        (fine,) = grid_integral_2d(
            f, QuadratureSpec(cells_per_decade=32, singular_points=(0.0,)), (50.0,)
        )
        assert abs(fine - np.pi) < abs(coarse - np.pi)
        assert fine == pytest.approx(np.pi, rel=2e-3)

    def test_nonfinite_cell_reported(self):
        def bad(s, u):
            near = np.broadcast_to(np.abs(s - 2.0) < 0.5, np.broadcast(s, u).shape)
            return np.where(near, np.inf, 1.0)

        with pytest.raises(QuadratureError, match="blows up"):
            grid_integral_2d(bad, QuadratureSpec(), (50.0,), label="blows up here")

    def test_windows_of_one_pass_are_their_own_grids(self):
        # window L of one pass weighs exactly the cells of the grid at cutoff
        # L; the window at the grid's own cutoff is the plain pass
        f = lambda s, u: 1.0 / (1.0 + s * s + u * u) ** 1.5
        lams = (2.0, 7.0, 50.0, 100.0)
        together = grid_integral_2d(f, QuadratureSpec(outer_cutoff=100.0), lams)
        alone = [grid_integral_2d(f, QuadratureSpec(outer_cutoff=lam), (lam,))[0] for lam in lams]
        np.testing.assert_allclose(together, alone, rtol=1e-15, atol=0.0)
        assert together[-1] == alone[-1]
        ones = grid_integral_2d(lambda s, u: np.ones(np.broadcast(s, u).shape),
                                QuadratureSpec(outer_cutoff=100.0), lams)
        for lam, got in zip(lams, ones):
            w = axis_cells(QuadratureSpec(outer_cutoff=lam))[1]
            assert got == pytest.approx(w.sum() ** 2, rel=1e-14)

    def test_window_without_cells_is_zero(self):
        # the one ladder, around 100, leaves no edge pair inside [-1.5, 1.5]
        q = QuadratureSpec(outer_cutoff=200.0, cells_per_decade=4, singular_points=(100.0,))
        assert axis_cells(replace(q, outer_cutoff=1.5))[0].size == 0
        got = grid_integral_2d(lambda s, u: np.ones(np.broadcast(s, u).shape), q, (1.5, 200.0))
        assert got[0] == 0.0 and got[1] > 0.0

    @pytest.mark.parametrize("lams", [(), (0.5,), (np.nan,), (60.0,), (20.0, 20.0), (40.0, 20.0)])
    def test_rejects_bad_windows(self, lams):
        with pytest.raises(ParameterError):
            grid_integral_2d(lambda s, u: s * u, QuadratureSpec(), lams)
