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

from dataclasses import dataclass

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


def grid_integral_2d(func, quad: QuadratureSpec, label: str = "integrand") -> float:
    """Midpoint-rule estimate of a nonnegative integrand over the 2-d grid.

    func must accept two broadcast arrays (s, u) and return the integrand on
    the full mesh; any non-finite cell aborts with the offending midpoint.
    """
    mid, w = axis_cells(quad)
    total = 0.0
    block = max(1, int(4_000_000 // max(mid.size, 1)))
    for i0 in range(0, mid.size, block):
        i1 = min(mid.size, i0 + block)
        vals = func(mid[i0:i1][:, None], mid[None, :])
        if not np.all(np.isfinite(vals)):
            bi, bj = np.argwhere(~np.isfinite(np.asarray(vals)))[0]
            raise QuadratureError(
                f"{label} is non-finite at cell midpoint "
                f"({mid[i0 + bi]!r}, {mid[bj]!r})"
            )
        total += float(np.einsum("ij,i,j->", vals, w[i0:i1], w))
    return total
