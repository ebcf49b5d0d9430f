"""Reference routes that only the tests use.

Each one checks a production route against an independent construction and
is not part of the package; traced_peak_mib measures a route's working set.
"""

import tracemalloc
from dataclasses import replace

import numpy as np

from harmstable import ModelParams, ParameterError, QuadratureSpec, RngStream, SingularityError
from harmstable.kernels import ZERO_FLOOR
from harmstable.quadrature import axis_cells
from harmstable.rng_stable import _check_stable_args, _positive_exponential


def gn_bound(x, n: int):
    """Envelope min(n, 2/|1 - e^{ix}|) dominating |kernel_gn| pointwise."""
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    denom = 2.0 * np.abs(np.sin(0.5 * np.asarray(x, dtype=float)))
    with np.errstate(divide="ignore"):
        return np.minimum(float(n), 2.0 / denom)


def phi_qv(s, p: ModelParams):
    """Quadratic-variation integrand |s|^{-2H-2/alpha} (1 - cos s), the
    spectral-density route to |kernel_r|^2 / 2.

    Evaluated as 2 sin^2(s/2) |s|^{-2H-2/alpha}; s = 0 always raises.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(np.abs(arr) < ZERO_FLOOR):
        raise SingularityError("phi_qv is singular at s = 0")
    expo = -2.0 * p.hurst - 2.0 / p.alpha
    out = 2.0 * np.sin(0.5 * arr) ** 2 * np.abs(arr) ** expo
    return out[()]


def sample_sas(alpha: float, scale: float, rng: RngStream, size=None):
    """Symmetric alpha-stable draws via the Chambers-Mallows-Stuck transform,
    the scalar law that the real part of sample_isotropic_stable follows.

    alpha = 2 is admitted (it degenerates to a Gaussian with standard
    deviation scale*sqrt(2)) so the sampler can be checked against a known
    closed form.
    """
    _check_stable_args(alpha, scale)
    g = rng.generator
    shape = () if size is None else size
    u = g.uniform(-0.5 * np.pi, 0.5 * np.pi, shape)
    w = _positive_exponential(g, shape)
    if alpha == 1.0:
        x = np.tan(u)
    else:
        x = (
            np.sin(alpha * u)
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
        )
    out = scale * x
    return float(out) if size is None else out


def dense_increments(s: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Y_j = sum_i exp(i j s_i) c_i for j < n as the dense product
    exp(1j * outer(j, s)) @ c, taken 64 values of j at a time."""
    j = np.arange(n)
    return np.concatenate(
        [np.exp(1j * np.outer(j[r : r + 64], s)) @ c for r in range(0, n, 64)]
    )


def dense_limit(jm, p, t_nodes: int) -> float:
    """Realized double-integral limit as the t_nodes Gauss-Legendre rule on
    [0, 1] of |A(t)|^2, A(t) = sum_i exp(i t s_i) a_i with a_i = |s_i|^gamma v_i,
    evaluated directly at every node, less the diagonal sum_i |a_i|^2."""
    x, w = np.polynomial.legendre.leggauss(t_nodes)
    t = 0.5 * (1.0 + x)
    a = np.abs(jm.locations) ** p.gamma * jm.values
    big_a = np.exp(1j * np.outer(t, jm.locations)) @ a
    return float(0.5 * w @ np.abs(big_a) ** 2 - np.sum(np.abs(a) ** 2))


def pair_table_sums(s: np.ndarray, a: np.ndarray, n_increments: int) -> np.ndarray:
    """Oracle for the identity sweep's prefix-sum route
    (analysis._pair_table_sums): the rotating pair table walked one row at a
    time. Row i holds base = a_i conj(a_k) for k < i, rotated by
    E = exp(i (s_i - s_k)) n_increments times; the table's sum at each
    j < n_increments is returned. It walks every pair, so it is independent
    of the prefix sums' order of addition, and holds three rows of at most
    atoms values."""
    sums = np.zeros(n_increments, dtype=complex)
    for i in range(1, s.size):
        cur = a[i] * np.conj(a[:i])
        rot = np.exp(1j * (s[i] - s[:i]))
        for j in range(n_increments):
            sums[j] += cur.sum()
            cur *= rot
    return sums


def envelope_quadrature_loop(r1: float, r2: float, lam_list, quad=None) -> np.ndarray:
    """Oracle for analysis.envelope_quadrature: one axis_cells call per outer
    cell. For each outer midpoint s the band [max(s - 1, -L), s] is integrated
    in closed form and the far part on its own grid anchored at 0 and s - 1,
    keeping the cells with midpoint <= s - 1. Inputs are not validated."""
    base = quad if quad is not None else QuadratureSpec(cells_per_decade=16)
    e = 1.0 - r1
    anti = lambda u: np.sign(u) * np.abs(u) ** e / e
    values = []
    for lam in lam_list:
        s_mid, s_w = axis_cells(replace(base, outer_cutoff=lam, singular_points=(0.0, -1.0, 1.0)))
        total = 0.0
        for s, w in zip(s_mid, s_w):
            inner = float(anti(s) - anti(max(s - 1.0, -lam)))
            hi = float(s) - 1.0
            if hi > -lam:
                u_mid, u_w = axis_cells(replace(base, outer_cutoff=lam, singular_points=(0.0, hi)))
                keep = u_mid <= hi
                um, uw = u_mid[keep], u_w[keep]
                inner += float((np.abs(um) ** (-r1) * np.abs(s - um) ** (-r2)) @ uw)
            total += w * np.abs(s) ** (-r1) * inner
        values.append(total)
    return np.array(values)


def traced_peak_mib(f) -> float:
    """Peak of the memory traced while f runs, above what was traced before,
    in MiB; f runs once untraced first so that cached rules are built."""
    f()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return (tracemalloc.get_traced_memory()[1] - base) / 2.0**20
    finally:
        tracemalloc.stop()
