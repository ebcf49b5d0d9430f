"""Reference routes that only the tests use.

Each one checks a production route against an independent construction and
is not part of the package; traced_peak_mib measures a route's working set.
"""

import tracemalloc

import numpy as np

from harmstable import ParameterError, RngStream
from harmstable.rng_stable import _check_stable_args, _positive_exponential


def gn_bound(x, n: int):
    """Envelope min(n, 2/|1 - e^{ix}|) dominating |kernel_gn| pointwise."""
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    denom = 2.0 * np.abs(np.sin(0.5 * np.asarray(x, dtype=float)))
    with np.errstate(divide="ignore"):
        return np.minimum(float(n), 2.0 / denom)


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
