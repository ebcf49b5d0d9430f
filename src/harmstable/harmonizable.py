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
from .kernels import ZERO_FLOOR, ModelParams, half_angle_exp, phi_qv, r_from_half_angle
from .levy_model import JumpMeasure, integrate_qv

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

# Gauss-Legendre rules by node count; callers share the arrays and never write
_leggauss = lru_cache(maxsize=16)(leggauss)


def simulate_increments(jm: JumpMeasure, n: int, p: ModelParams) -> np.ndarray:
    """Evaluate Y_j = sum_i exp(i j s_i) c_i, c_i = r(s_i) v_i, for j < n.

    With B = isqrt(n) and K = ceil(n / B), every j < B*K is kB + b for
    b < B, k < K, and exp(i (kB + b) s) = exp(i b s) exp(i kB s). So per
    block of atoms a baby table exp(i b s) and a giant table
    c exp(i kB s) are built by repeated multiplication from exp(i s) = h * h,
    h = exp(i s/2), which also gives r(s). Their product (B x atoms) @
    (atoms x K) adds Y_{kB+b} into entry (b, k) of a B x K accumulator,
    read out k-major. This is (B + K) * atoms table entries and one matrix
    product in place of n * atoms rotation steps; each power carries at
    most about n roundings, the same as a rotation recurrence.
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
    for i0 in range(0, s.size, _ATOM_BLOCK):
        sb = s[i0 : i0 + _ATOM_BLOCK]
        m = sb.size
        # h = exp(i s/2) as kernels.half_angle_exp forms it, in h_buf
        h = np.exp(np.multiply(sb, 0.5j, out=h_buf[:m]), out=h_buf[:m])
        rot = np.multiply(h, h, out=rot_buf[:m])
        r = r_from_half_angle(sb, h, p.gamma)
        c = np.multiply(r, jm.values[i0 : i0 + m], out=c_buf[:m])
        baby = _powers(baby_buf[: b * m].reshape(b, m), rot, 1.0)
        step = np.multiply(baby[-1], rot, out=h_buf[:m])  # r is spent
        giant = _powers(giant_buf[: k * m].reshape(k, m), step, c)
        acc += baby @ giant.T
    return acc.T.ravel()[:n]


def _powers(table: np.ndarray, ratio: np.ndarray, first) -> np.ndarray:
    """Fill the rows of table with first * ratio^r, by repeated multiplication."""
    table[0] = first
    for r in range(1, len(table)):
        np.multiply(table[r - 1], ratio, out=table[r])
    return table


def realized_U(jm: JumpMeasure, p: ModelParams) -> float:
    """Realized limit of Q_n / n on these atoms: twice the quadratic-variation
    integral of the spectral density phi."""
    return 2.0 * integrate_qv(jm, lambda s: phi_qv(s, p))


def quadratic_statistic(y: np.ndarray, m: int) -> float:
    """Quadratic statistic Q_m, the sum of the first m squared moduli of the
    increments y."""
    if not (1 <= m <= y.size):
        raise ParameterError(f"m must be in [1, {y.size}], got {m}")
    y = y[:m]
    return float(np.sum(y.real**2 + y.imag**2))


def normalized_error(q_m: float, u_realized: float, m: int, p: ModelParams) -> float:
    """Rescaled deviation m^(2-2H) * (Q_m / m - U)."""
    if m < 1:
        raise ParameterError(f"m must be a positive integer, got {m}")
    return float(m) ** (2.0 - 2.0 * p.hurst) * (q_m / m - u_realized)


def t_nodes_for(half_width: float) -> int:
    """Gauss-Legendre node count for |A(t)|^2 on [-M, M], whose bandwidth is
    at most 2M: the rule converges geometrically once it has about M nodes."""
    return math.ceil(half_width) + 16


def rosenblatt_fast(jm: JumpMeasure, p: ModelParams, t_nodes: int | None = None) -> float:
    """O(t_nodes * atoms) evaluation of the realized double-integral limit.

    The kernel prefactor is the t-average of exp(i t (s-u)) over [0, 1], so
    the pair sum collapses to the Gauss-Legendre quadrature of |A(t)|^2 with
    A(t) = sum_i exp(i t s_i) a_i, a_i = |s_i|^gamma v_i, minus the diagonal.
    The nodes pair up as t = 1/2 +- d: with b_i = a_i exp(i s_i / 2),
    C = sum_i b_i cos(d s_i) and S = sum_i b_i sin(d s_i), A(1/2 +- d) is
    C +- i S and the pair adds 2 (|C|^2 + |S|^2). So one cosine and one sine
    table over the offsets d > 0 act on [Re b, Im b] as real matrix
    products; an odd t_nodes adds the centre node t = 1/2.

    t_nodes defaults to t_nodes_for(M) = ceil(M) + 16, which at 10^5 atoms
    agrees with a rule 4 times as fine (and of at least 1024 nodes) to
    <= 1e-13 relative for M in {1, 5, 20, 50, 100, 500}.
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
    amp = np.abs(s) ** p.gamma * jm.values
    diag = float(np.sum(amp.real**2 + amp.imag**2))
    b = np.multiply(amp, half_angle_exp(s), out=amp)
    b_ri = b.view(float).reshape(-1, 2)  # columns Re b, Im b
    # rule on [-1, 1]: t = (1 + x) / 2 halves each weight, a pair doubles it
    x, w = _leggauss(t_nodes)
    half = t_nodes // 2
    d, w_pair = 0.5 * x[t_nodes - half :], w[t_nodes - half :]
    total = 0.5 * w[half] * float(abs(b.sum())) ** 2 if t_nodes % 2 else 0.0
    # C and S summed over atom blocks, so the tables hold half x 4096 entries
    c, sn = np.zeros((2, half, 2))
    ds_buf, trig_buf = np.empty((2, half * min(s.size, _ATOM_BLOCK)))
    for i0 in range(0, s.size, _ATOM_BLOCK):
        sb = s[i0 : i0 + _ATOM_BLOCK]
        m = sb.size
        ds = np.multiply.outer(d, sb, out=ds_buf[: half * m].reshape(half, m))
        trig = trig_buf[: half * m].reshape(half, m)
        c += np.cos(ds, out=trig) @ b_ri[i0 : i0 + m]
        sn += np.sin(ds, out=trig) @ b_ri[i0 : i0 + m]
    total += float(w_pair @ np.sum(c**2 + sn**2, axis=1))
    return total - diag * 0.5 * float(np.sum(w))

