"""Log-spaced midpoint quadrature on domains with isolated singular points.

The cell layout is built once per axis: from every declared singular point a
geometric ladder of edges grows outward, starting at the inner cutoff and
multiplying by 10**(1/cells_per_decade) per step.  Cells are the consecutive
segments of the merged edge set, with two pruning rules that make repeated
evaluations comparable:

* cells not fully inside [-outer_cutoff, outer_cutoff] are dropped, so
  enlarging the cutoff only ever adds cells (estimates of a nonnegative
  integrand are monotone in the cutoff);
* cells inside the punched hole (p - inner, p + inner) around a singular
  point p are dropped, and shrinking the inner cutoff by a power of ten
  refines the grid without moving any surviving cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, QuadratureError

__all__ = ["QuadratureSpec", "axis_cells", "grid_integral_2d"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Layout parameters for the singular-point-aware midpoint grid."""

    outer_cutoff: float = 50.0
    inner_cutoff: float = 1e-8
    cells_per_decade: int = 8
    singular_points: tuple[float, ...] = (0.0, -1.0, 1.0)

    def __post_init__(self) -> None:
        if not (0.0 < self.inner_cutoff < 1.0 < self.outer_cutoff):
            raise ParameterError(
                "need 0 < inner_cutoff < 1 < outer_cutoff, got "
                f"{self.inner_cutoff} and {self.outer_cutoff}"
            )
        if self.cells_per_decade < 4:
            raise ParameterError(
                f"cells_per_decade must be at least 4, got {self.cells_per_decade}"
            )


def axis_cells(quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and widths of the 1-d cells of the grid."""
    lam = quad.outer_cutoff
    eps = quad.inner_cutoff
    anchors = sorted(set(quad.singular_points)) or [0.0]
    ratio = 10.0 ** (1.0 / quad.cells_per_decade)
    span = lam + max(abs(a) for a in anchors)  # farthest reach any ladder needs
    steps = int(np.ceil(np.log(span / eps) / np.log(ratio))) + 1
    offsets = eps * ratio ** np.arange(steps + 1)
    edges = []
    for p in anchors:
        edges.append(p + offsets)
        edges.append(p - offsets)
    grid = np.unique(np.concatenate(edges))
    grid = grid[(grid >= -lam) & (grid <= lam)]
    lo, hi = grid[:-1], grid[1:]
    mid = 0.5 * (lo + hi)
    keep = (hi - lo) > 0.0
    for p in anchors:
        keep &= (hi <= p - eps) | (lo >= p + eps)
    return mid[keep], (hi - lo)[keep]


def _check_windows(lam_list) -> tuple[float, ...]:
    """Window half-widths L as floats, checked to be finite, > 1 and
    strictly increasing."""
    lams = tuple(float(x) for x in lam_list)
    # written so that a NaN window fails the check
    if len(lams) < 1 or not all(1.0 < x < np.inf for x in lams):
        raise ParameterError(f"windows must be finite reals > 1, got {lam_list}")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ParameterError(f"windows must be strictly increasing, got {lam_list}")
    return lams


def _window_runs(quad: QuadratureSpec, mid: np.ndarray, lams) -> list[tuple[int, int]]:
    """(start, stop) of each window's cells among mid, the cells of quad's
    grid at a cutoff no smaller than any window. Window L holds the cells
    that axis_cells gives at cutoff L; the larger grid holds them, since
    enlarging the cutoff only adds cells, as one run of its sorted cells."""
    runs = []
    for lam in lams:
        inside = np.flatnonzero(np.isin(mid, axis_cells(replace(quad, outer_cutoff=lam))[0]))
        runs.append((inside[0], inside[-1] + 1) if inside.size else (0, 0))
    return runs


def grid_integral_2d(func, quad: QuadratureSpec, windows, label: str = "integrand") -> np.ndarray:
    """Midpoint-rule estimates of a nonnegative integrand over the windows
    [-L, L]^2 of the 2-d grid, one per L in windows, from one pass over the
    grid: L may not exceed quad.outer_cutoff.

    Window L sums the cells that axis_cells gives at cutoff L, one run of
    the grid's sorted cells (_window_runs), so each window reads its own
    square of every block of rows. func must accept two broadcast arrays
    (s, u) and return the integrand on the full mesh; any non-finite cell
    aborts with the offending midpoint.
    """
    lams = _check_windows(windows)
    if lams[-1] > quad.outer_cutoff:
        raise ParameterError(
            f"windows must not exceed the outer cutoff {quad.outer_cutoff}, got {lams[-1]}"
        )
    mid, w = axis_cells(quad)
    runs = _window_runs(quad, mid, lams)
    totals = np.zeros(len(lams))
    block = max(1, int(4_000_000 // max(mid.size, 1)))
    for i0 in range(0, mid.size, block):
        i1 = min(mid.size, i0 + block)
        vals = func(mid[i0:i1][:, None], mid[None, :])
        if not np.all(np.isfinite(vals)):
            bi, bj = np.argwhere(~np.isfinite(np.asarray(vals)))[0]
            raise QuadratureError(
                f"{label} is non-finite at cell midpoint "
                f"({float(mid[i0 + bi])!r}, {float(mid[bj])!r})"
            )
        for k, (a, b) in enumerate(runs):
            r0, r1 = max(i0, a), min(i1, b)
            if r0 < r1:
                sub = vals[r0 - i0 : r1 - i0, a:b]
                totals[k] += float(np.einsum("ij,i,j->", sub, w[r0:r1], w[a:b]))
    return totals
