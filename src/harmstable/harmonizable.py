"""Pathwise-coupled unit increments of the process and their limit objects.

Given one atomic noise realization, this module produces, on the same atoms:

* the increment series Y_j = sum_i exp(i j s_i) r(s_i) v_i,
* the realized long-run limit U of the quadratic statistic Q_n / n,
* the realized double-integral limit of the rescaled error
  n^(2-2H) (Q_n/n - U),

so the finite-n identities between these quantities hold exactly and the
limit theorems can be checked distributionally across realizations.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ParameterError, SingularityError
from .kernels import ZERO_FLOOR, ModelParams, half_angle_exp, r_from_half_angle
from .levy_model import JumpMeasure

__all__ = [
    "simulate_increments",
    "realized_U",
    "quadratic_statistic",
    "normalized_error",
    "rosenblatt_fast",
    "t_nodes_for",
]

# atoms per block of the increment sum, which bounds its two power tables
# to 2 sqrt(n) x 4096 complex entries (3 MiB at n = 512) at any atom count
_ATOM_BLOCK = 4096

# cell width h of the limit draw's Taylor expansion and its order p: the
# smallest p with (h/2)^p / p! <= 2^-64, the remainder bound for t in [0, 1]
_CELL = 0.5
_ORDERS = 14

# Gauss-Legendre rules by node count; callers share the arrays and never write
_leggauss = lru_cache(maxsize=16)(leggauss)


def simulate_increments(jm: JumpMeasure, n: int, p: ModelParams) -> tuple[np.ndarray, float]:
    """Return Y_j = sum_i exp(i j s_i) c_i, c_i = r(s_i) v_i, for j < n, and
    the realized limit U = sum_i |c_i|^2 of Q_n / n, summed block by block.

    With B = isqrt(n) and K = ceil(n / B), every j < B*K is kB + b for
    b < B, k < K, and exp(i (kB + b) s) = exp(i b s) exp(i kB s). So per block
    of atoms a baby table exp(i b s) and a giant table c exp(i kB s) are built
    by repeated multiplication from exp(i s) = h * h, h = exp(i s/2), which
    also gives r(s). Their product (B x atoms) @ (atoms x K) adds Y_{kB+b}
    into entry (b, k) of a B x K accumulator, read out k-major: (B + K) * atoms
    table entries and one matrix product in place of n * atoms rotation steps,
    with at most about n roundings per power. A non-finite U raises
    SingularityError; a finite U bounds each |Y_j| by sqrt(N U) over N atoms.
    """
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    s = jm.locations
    b = math.isqrt(n)
    k = -(-n // b)
    acc = np.zeros((b, k), dtype=complex)
    # one set of block-sized buffers per call, sliced to a short last block;
    # no product writes over its own operand (numpy rounds a 1-element
    # in-place complex product differently)
    width = min(s.size, _ATOM_BLOCK)
    h_buf, rot_buf, c_buf = np.empty((3, width), dtype=complex)
    baby_buf = np.empty(b * width, dtype=complex)
    giant_buf = np.empty(k * width, dtype=complex)
    u = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, s.size, _ATOM_BLOCK):
            sb = s[i0 : i0 + _ATOM_BLOCK]
            m = sb.size
            h = half_angle_exp(sb, out=h_buf[:m])
            rot = np.multiply(h, h, out=rot_buf[:m])
            r = r_from_half_angle(sb, h, p.gamma)
            c = np.multiply(r, jm.values[i0 : i0 + m], out=c_buf[:m])
            u += float(np.sum(c.real**2 + c.imag**2))
            baby = _powers(baby_buf[: b * m].reshape(b, m), rot, 1.0)
            step = np.multiply(baby[-1], rot, out=h_buf[:m])  # r is spent
            giant = _powers(giant_buf[: k * m].reshape(k, m), step, c)
            acc += baby @ giant.T
    if not math.isfinite(u):
        raise SingularityError("realized limit U is non-finite: r(s_i) v_i or its square overflows")
    return acc.T.ravel()[:n], u


def _powers(table: np.ndarray, ratio: np.ndarray, first) -> np.ndarray:
    """Fill the rows of table with first * ratio^r, by repeated multiplication."""
    table[0] = first
    for r in range(1, len(table)):
        np.multiply(table[r - 1], ratio, out=table[r])
    return table


def realized_U(jm: JumpMeasure, p: ModelParams) -> float:
    """Realized limit sum_i |r(s_i) v_i|^2 of Q_n / n, from simulate_increments."""
    return simulate_increments(jm, 1, p)[1]


def quadratic_statistic(y: np.ndarray, m: int) -> float:
    """Quadratic statistic Q_m, the sum of the first m squared moduli of the
    increments y. A non-finite sum, as from |Y_j|^2 overflowing, raises
    SingularityError."""
    if not (1 <= m <= y.size):
        raise ParameterError(f"m must be in [1, {y.size}], got {m}")
    y = y[:m]
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(np.sum(y.real**2 + y.imag**2))
    if not math.isfinite(q):
        raise SingularityError("quadratic statistic is non-finite: |Y_j|^2 overflows")
    return q


def normalized_error(q_m: float, u_realized: float, m: int, p: ModelParams) -> float:
    """Rescaled deviation m^(2-2H) * (Q_m / m - U). A non-finite result
    raises SingularityError."""
    if m < 1:
        raise ParameterError(f"m must be a positive integer, got {m}")
    err = float(m) ** (2.0 - 2.0 * p.hurst) * (q_m / m - u_realized)
    if not math.isfinite(err):
        raise SingularityError("normalized error is non-finite")
    return err


def t_nodes_for(half_width: float) -> int:
    """Gauss-Legendre node count for |A(t)|^2 on [-M, M], whose bandwidth is
    at most 2M: the rule converges geometrically once it has about M nodes."""
    return math.ceil(half_width) + 16


def rosenblatt_fast(jm: JumpMeasure, p: ModelParams, t_nodes: int | None = None) -> float:
    """Realized double-integral limit, with no trigonometry per atom.

    The kernel prefactor is the t-average of exp(i t (s-u)) over [0, 1], so
    the pair sum collapses to the Gauss-Legendre quadrature of |A(t)|^2 with
    A(t) = sum_i exp(i t s_i) a_i, a_i = |s_i|^gamma v_i, minus the diagonal
    sum_i |a_i|^2.

    A(t) is summed by cells of width h = _CELL: s_i = g_i h + f_i with
    g_i = rint(s_i / h) and |f_i| <= h/2. Per occupied cell the moments
    W[k, g] = sum_{i in g} a_i f_i^k, k < p = _ORDERS, are sums over one
    contiguous run of the sorted atoms, and
    A(t) = sum_g exp(i t g h) sum_k (i t)^k / k! W[k, g], combined over k by
    Horner's rule. For t in [0, 1] the Taylor remainder of exp(i t f) is at
    most (h/2)^p / p! <= 2^-64 (4.3e-20 at h = 1/2, p = 14), so
    |A(t) - A_exact(t)| <= 2^-64 sum_i |a_i| plus rounding. The only
    exponentials are t_nodes x cells, built a block of nodes at a time; the
    per-atom tables are one 4,096-atom block wide.

    t_nodes defaults to t_nodes_for(M) = ceil(M) + 16, which at 10^5 atoms
    agrees with a rule 4 times as fine (and of at least 1024 nodes) to
    <= 3e-13 relative for M in {1, 5, 20, 50, 100, 500} (three draws each).
    A non-finite total or diagonal, as from amplitudes whose squares
    overflow, raises SingularityError.
    """
    if t_nodes is None:
        t_nodes = t_nodes_for(jm.half_width)
    if t_nodes < 2:
        raise ParameterError(f"t_nodes must be at least 2, got {t_nodes}")
    if jm.n_terms < 2:
        return 0.0
    s = jm.locations
    if p.gamma < 0.0 and np.any(np.abs(s) < ZERO_FLOOR):
        raise SingularityError("atom at s = 0 with gamma < 0")
    x, w = _leggauss(t_nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        cells, moments, diag = _cell_moments(s, jm.values, p.gamma)
        # rule on [-1, 1]: t = (1 + x) / 2 halves each weight
        t = 0.5 * (1.0 + x)
        rows = max(1, _ATOM_BLOCK // cells.size)
        total = 0.0
        for q0 in range(0, t_nodes, rows):
            tq = t[q0 : q0 + rows]
            sums = np.exp(np.multiply.outer(1j * tq, cells)) @ moments.T
            a = sums[:, -1]
            for k in range(_ORDERS - 1, 0, -1):
                a = sums[:, k - 1] + a * (1j * tq / k)
            total += float(0.5 * w[q0 : q0 + rows] @ (a.real**2 + a.imag**2))
    if not (math.isfinite(total) and math.isfinite(diag)):
        raise SingularityError("limit draw is non-finite: an amplitude |s|^gamma v overflows")
    return total - diag * 0.5 * float(np.sum(w))


def _cell_moments(s: np.ndarray, v: np.ndarray, gamma: float):
    """Cell centres g h, moments W[k, g] = sum_{i in g} a_i f_i^k (orders x
    cells) and sum_i |a_i|^2 for sorted s, from one orders x 2 x 4096 table
    of Re/Im a_i f_i^k per atom block. A cell cut by a block boundary is
    listed once per block, which leaves A(t) unchanged."""
    table_buf = np.empty(2 * _ORDERS * min(s.size, _ATOM_BLOCK))
    ids, parts, diag = [], [], 0.0
    for i0 in range(0, s.size, _ATOM_BLOCK):
        sb = s[i0 : i0 + _ATOM_BLOCK]
        m = sb.size
        a = np.abs(sb) ** gamma * v[i0 : i0 + m]
        diag += float(np.sum(a.real**2 + a.imag**2))
        g = np.rint(sb / _CELL)
        f = sb - g * _CELL
        table = _powers(table_buf[: 2 * _ORDERS * m].reshape(_ORDERS, 2, m), f, (a.real, a.imag))
        # run starts: atom 0 and each atom whose cell differs from the last
        runs = np.flatnonzero(np.diff(g, prepend=np.nan))
        ids.append(g[runs])
        parts.append(np.add.reduceat(table.reshape(2 * _ORDERS, m), runs, axis=1))
    ri = np.concatenate(parts, axis=1)
    return np.concatenate(ids) * _CELL, ri[0::2] + 1j * ri[1::2], diag
