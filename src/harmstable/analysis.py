"""Monte Carlo experiment runners and statistical verdicts.

Each runner draws independent realizations on per-replication random
streams, aggregates them in stream-index order, and returns its samples
(one row per replication, one column per n) and the results block of its
JSON report. Both are bit-reproducible from the arguments, regardless of
how many worker threads executed the replication loop.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import cache

import numpy as np

from .errors import ConfigError, ParameterError, QuadratureError
from .harmonizable import (
    normalized_error,
    quadratic_statistic,
    rosenblatt_fast,
    simulate_increments,
    t_nodes_for,
)
from .kernels import ModelParams, kernel_gn, kernel_h, kernel_hn, kernel_r, nearest_2pi
from .levy_model import build_jump_measure, double_integrate, integrate_qv
from .quadrature import QuadratureSpec, _check_windows, _window_runs, axis_cells
from .rng_stable import RngStream, sample_isotropic_stable

__all__ = [
    "run_lln_experiment",
    "run_clt_experiment",
    "iid_stable_qv_experiment",
    "identity_suite",
    "ks_two_sample",
    "loglog_slope",
    "kernel_limit_check",
    "envelope_quadrature",
]


def _worker_count(threads: int) -> int:
    if threads < 0:
        raise ParameterError(f"threads must be >= 0, got {threads}")
    if threads == 0:
        return min(32, os.cpu_count() or 1)
    return threads


@cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS that numpy >= 2
    wheels ship and load, or None when numpy uses another BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _OneBlasThread:
    """Holds OpenBLAS at one thread while any worker pool runs.

    Each worker calls BLAS itself, and threaded matrix products in two
    workers at once fight over the same cores. The count is process-wide,
    so overlapping pools share one hold: the first to enter saves the
    count and the last to leave restores it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = 0

    def __enter__(self) -> None:
        with self._lock:
            blas = _openblas_threads()
            if self._holders == 0 and blas is not None:
                self._saved = blas[0]()
                blas[1](1)
            self._holders += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._holders -= 1
            blas = _openblas_threads()
            if self._holders == 0 and blas is not None:
                blas[1](self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


def _parallel_map(fn, count: int, threads: int) -> list:
    """Map fn over range(count); results are returned in index order so the
    downstream fold is deterministic for any worker count. While more than
    one worker runs, BLAS runs on one thread."""
    workers = _worker_count(threads)
    if workers == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with _ONE_BLAS_THREAD, ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def _check_resolution(n_max: int, n_terms: int, half_width: float) -> None:
    limit = n_terms / (2.0 * half_width)
    if n_max > limit:
        raise ConfigError(
            f"n={n_max} exceeds the resolution limit n_terms/(2*half_width)="
            f"{limit:g}; raise n_terms or shrink half_width"
        )


def _check_n_list(n_list) -> tuple[int, ...]:
    ns = tuple(int(n) for n in n_list)
    if len(ns) < 1 or any(n < 1 for n in ns):
        raise ParameterError(f"n_list must contain positive integers, got {n_list}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError(f"n_list must be strictly increasing, got {n_list}")
    return ns


def _quartiles(samples: np.ndarray, ns) -> list[dict]:
    """Median and quartiles of each column of samples, one row per n."""
    return [
        {
            "n": int(n),
            "median": float(np.median(col)),
            "q25": float(np.quantile(col, 0.25)),
            "q75": float(np.quantile(col, 0.75)),
        }
        for n, col in zip(ns, samples.T)
    ]


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance: the sup gap between the two
    empirical distribution functions."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ParameterError("ks_two_sample requires two nonempty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def loglog_slope(points) -> tuple[float, float]:
    """Least-squares slope of log y against log n, with its standard error."""
    pts = [(float(n), float(y)) for n, y in points]
    if len(pts) < 3:
        raise ParameterError(f"loglog_slope needs at least 3 points, got {len(pts)}")
    ns = np.array([n for n, _ in pts])
    ys = np.array([y for _, y in pts])
    if np.unique(ns).size != ns.size:
        raise ParameterError("loglog_slope needs distinct n values")
    if np.any(ys <= 0.0) or np.any(ns <= 0.0):
        raise ParameterError("loglog_slope needs positive n and y values")
    x = np.log(ns)
    z = np.log(ys)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (z - z.mean())) / sxx
    resid = z - z.mean() - slope * xc
    dof = len(pts) - 2
    stderr = float(np.sqrt(max(0.0, float(resid @ resid)) / dof / sxx))
    return slope, stderr


def run_lln_experiment(
    p: ModelParams,
    half_width: float,
    n_terms: int,
    n_list,
    replications: int,
    seed: int,
    threads: int = 0,
) -> tuple[np.ndarray, dict]:
    """Coupled law-of-large-numbers check: per replication, simulate one
    realization and record |Q_n/n - U| at each n. Returns those errors and
    results: their quartiles per n, the log-log slope of the medians
    (theory: 2H - 2), and the median Q_n per n with its slope (theory: 1).

    Both slopes are None when any median error sits at rounding level
    relative to the statistic itself, since no decay rate is measurable
    there (degenerate measures with very few atoms hit this)."""
    ns = _check_n_list(n_list)
    if replications < 50:
        raise ParameterError(f"replications must be >= 50, got {replications}")
    n_max = max(ns)
    _check_resolution(n_max, n_terms, half_width)

    def one(i: int) -> tuple[np.ndarray, np.ndarray]:
        rng = RngStream(master_seed=seed, stream_index=i)
        jm = build_jump_measure(p.alpha, half_width, n_terms, rng)
        y, u = simulate_increments(jm, n_max, p)
        qs = np.array([quadratic_statistic(y, m) for m in ns])
        return np.abs(qs / np.array(ns, dtype=float) - u), qs

    results = _parallel_map(one, replications, threads)
    errors = np.vstack([r[0] for r in results])
    qstats = np.vstack([r[1] for r in results])

    per_n = _quartiles(errors, ns)
    medians = [row["median"] for row in per_n]
    q_medians = [float(np.median(qstats[:, k])) for k in range(len(ns))]
    floors = [1e-12 * q / n for q, n in zip(q_medians, ns)]
    slope = stderr = q_slope = q_stderr = None
    if len(ns) >= 3 and all(m > f > 0.0 for m, f in zip(medians, floors)):
        slope, stderr = loglog_slope(zip(ns, medians))
        q_slope, q_stderr = loglog_slope(zip(ns, q_medians))
    return errors, {
        "per_n": per_n,
        "slope": slope,
        "slope_stderr": stderr,
        "q_median_per_n": [{"n": int(n), "q_median": q} for n, q in zip(ns, q_medians)],
        "q_slope": q_slope,
        "q_slope_stderr": q_stderr,
    }


def run_clt_experiment(
    p: ModelParams,
    half_width: float,
    n_terms: int,
    n: int,
    replications: int,
    seed: int,
    threads: int = 0,
) -> tuple[np.ndarray, dict]:
    """Distributional check of the rescaled error: sample A collects
    n^(2-2H)(Q_n/n - U) on fresh realizations, sample B collects realized
    double-integral limits on independent fresh realizations. Returns one
    sample column, A followed by B, and results holding their two-sample
    KS distance. The limit draws use t_nodes_for(half_width)
    Gauss-Legendre nodes."""
    if not p.clt_regime:
        raise ConfigError(
            "normalized-error limit requires hurst > 1/2 and "
            f"alpha*(1-hurst) < 1/2; got alpha={p.alpha}, hurst={p.hurst}"
        )
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    if replications < 1:
        raise ParameterError(f"replications must be >= 1, got {replications}")
    _check_resolution(n, n_terms, half_width)

    def one_error(i: int) -> float:
        rng = RngStream(master_seed=seed, stream_index=i)
        jm = build_jump_measure(p.alpha, half_width, n_terms, rng)
        y, u = simulate_increments(jm, n, p)
        return normalized_error(quadratic_statistic(y, n), u, n, p)

    def one_limit(i: int) -> float:
        rng = RngStream(master_seed=seed, stream_index=replications + i)
        jm = build_jump_measure(p.alpha, half_width, n_terms, rng)
        return rosenblatt_fast(jm, p, t_nodes=t_nodes_for(jm.half_width))

    sample_a = np.array(_parallel_map(one_error, replications, threads))
    sample_b = np.array(_parallel_map(one_limit, replications, threads))
    samples = np.concatenate((sample_a, sample_b))[:, None]
    return samples, {"ks_distance": ks_two_sample(sample_a, sample_b)}


def iid_stable_qv_experiment(
    alpha: float,
    n_list,
    replications: int,
    seed: int,
    threads: int = 0,
) -> tuple[np.ndarray, dict]:
    """Contrast case: quadratic variation of iid isotropic stable draws grows
    like n^(2/alpha), unlike the order-n growth of the coupled model.
    Returns Q_n per replication and n, and results: its quartiles per n and
    the log-log slope of the medians."""
    ns = _check_n_list(n_list)
    if replications < 100:
        raise ParameterError(f"replications must be >= 100, got {replications}")
    n_max = max(ns)

    def one(i: int) -> np.ndarray:
        rng = RngStream(master_seed=seed, stream_index=i)
        z = sample_isotropic_stable(alpha, 1.0, rng, size=n_max)
        csum = np.cumsum(z.real**2 + z.imag**2)
        return csum[np.array(ns) - 1]

    qmat = np.vstack(_parallel_map(one, replications, threads))
    per_n = _quartiles(qmat, ns)
    slope = stderr = None
    medians = [row["median"] for row in per_n]
    if len(ns) >= 3 and all(m > 0.0 for m in medians):
        slope, stderr = loglog_slope(zip(ns, medians))
    return qmat, {"per_n": per_n, "slope": slope, "slope_stderr": stderr}


# the square decomposition is checked at j <= 16: further out |Y_j|^2 can be
# 1e-4 of QV, whose rounding then dominates the residual on any route
_SQUARE_J_MAX = 16


def identity_suite(
    trials: int,
    seed: int,
    alphas=(0.8, 1.2, 1.6),
    hurst: float = 0.75,
    half_width: float = 10.0,
    n_terms: int = 1000,
    n_increments: int = 64,
    threads: int = 0,
) -> dict:
    """Exact-identity sweep over random atomic measures.

    Per trial, checks on the increments Y_j of simulate_increments the
    squared-integral decomposition |Y_j|^2 = 2 Re PairSum(g_j x conj g_j) + QV,
    g_j = exp(ijs) r(s), at j <= _SQUARE_J_MAX, and the finite-n error
    representation m^(2-2H)(Q_m/m - U) = 2 Re PairSum(h_m). Returns the worst
    relative residuals seen; the error representation's residual is relative
    to the larger of |2 Re PairSum(h_m)| and m^(2-2H) max(Q_m/m, U).

    The modulated pair sums come from prefix sums of a exp(ijs), a = r v
    (_pair_table_sums), and the level-m kernel pair sum is their total over
    j < n_increments. Y_j and U come from simulate_increments and QV = sum
    |a_i|^2 from integrate_qv, independent of that pass; the generic pair
    walk cross-checks the j = 0 sum with the kernel 1, and on every tenth
    trial recomputes the level-m sum with the kernel m^(1-2H) g_m(s - u).
    The sweep thus never builds kernel_hn's mask and r factors; the kernel
    tests check them. A non-finite pair sum or residual raises
    QuadratureError."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if n_increments < 1:
        raise ParameterError(f"n_increments must be >= 1, got {n_increments}")
    if len(alphas) < 1:
        raise ParameterError("alphas must name at least one stability index")

    def one(i: int) -> tuple[float, float]:
        alpha = alphas[i % len(alphas)]
        p = ModelParams(alpha=alpha, hurst=hurst)
        rng = RngStream(master_seed=seed, stream_index=i)
        jm = build_jump_measure(alpha, half_width, n_terms, rng)
        s = jm.locations
        a = kernel_r(s, p) * jm.values
        jm_a = replace(jm, values=a)
        pair_j = _pair_table_sums(s, a, n_increments)

        pair_direct = complex(double_integrate(jm_a, lambda x, y: 1.0))
        # written so that a NaN fails each comparison rather than passing it
        if not np.all(np.isfinite([*pair_j, pair_direct])):
            raise QuadratureError(f"trial {i}: non-finite pair sum")
        if not abs(pair_j[0] - pair_direct) <= 1e-9 * max(abs(pair_j[0]), 1.0):
            raise QuadratureError("pair-sum evaluators disagree on the base kernel")

        y, u = simulate_increments(jm, n_increments, p)
        head = y[: _SQUARE_J_MAX + 1]
        lhs = head.real**2 + head.imag**2
        pair = np.r_[pair_direct, pair_j[1 : head.size]]
        rhs = 2.0 * pair.real + integrate_qv(jm_a, lambda x: 1.0)
        rels = np.abs(lhs - rhs) / np.maximum(np.maximum(lhs, np.abs(rhs)), 1.0)
        # checked before Q_m, which raises on its own if an increment is not finite
        if not np.all(np.isfinite(rels)):
            raise QuadratureError(f"trial {i}: non-finite identity residual")

        q_m = quadratic_statistic(y, n_increments)
        lhs = normalized_error(q_m, u, n_increments, p)
        if i % 10 == 0:
            pair_m = complex(double_integrate(jm_a, lambda x, y: kernel_gn(x - y, n_increments)))
        else:
            pair_m = complex(pair_j.sum())
        pair_m *= float(n_increments) ** (1.0 - 2.0 * p.hurst)
        rhs = 2.0 * pair_m.real
        # lhs is the rescaled difference of Q_m/m and U, which one heavy atom
        # can make cancel to 1e-7 of either, so the residual is measured
        # against the rescaled terms rather than their difference
        terms = float(n_increments) ** (2.0 - 2.0 * p.hurst) * max(q_m / n_increments, u)
        scale = max(abs(rhs), terms)
        worst_err = abs(lhs - rhs) / scale if scale > 0.0 else abs(lhs - rhs)
        if not np.isfinite(worst_err):
            raise QuadratureError(f"trial {i}: non-finite identity residual")
        return float(rels.max()), worst_err

    results = _parallel_map(one, trials, threads)
    return {
        "trials": int(trials),
        "seed": int(seed),
        "alphas": [float(a) for a in alphas],
        "hurst": float(hurst),
        "half_width": float(half_width),
        "n_terms": int(n_terms),
        "n_increments": int(n_increments),
        "max_square_decomposition_residual": max(r[0] for r in results),
        "max_error_representation_residual": max(r[1] for r in results),
    }


def _pair_table_sums(s: np.ndarray, a: np.ndarray, n_increments: int) -> np.ndarray:
    """Sums over the atom pairs k < i of x_i conj(x_k), x = a exp(i j s), at
    each j < n_increments. Their total is the pair sum of
    base * (1 + E + ... + E^(n_increments-1)) with base = a_i conj(a_k) and
    E = exp(i (s_i - s_k)).

    The sum at j is sum(x[1:] * conj(cumsum(x[:-1]))), the same pairs in
    location order, in O(atoms); x is rotated from the previous j by
    exp(i s). The call holds four atom-sized rows whatever n_increments."""
    per_j = np.empty(n_increments, dtype=complex)
    rot = np.exp(1j * s)
    x = np.array(a, dtype=complex)
    prefix, prod = np.empty((2, max(s.size - 1, 0)), dtype=complex)
    for j in range(n_increments):
        np.conjugate(np.cumsum(x[:-1], out=prefix), out=prefix)
        per_j[j] = np.multiply(x[1:], prefix, out=prod).sum()
        x *= rot
    return per_j


def kernel_limit_check(s: float, u: float, p: ModelParams, n_list) -> np.ndarray:
    """Deviations ||n^(-2/alpha) h_n(s/n, u/n) - h(s, u)|| along n_list.

    The limit fails when s - u is a positive multiple of 2 pi, so those
    inputs are rejected."""
    if u >= s:
        raise ParameterError(f"requires u < s, got s={s}, u={u}")
    if s == 0.0 or u == 0.0:
        raise ParameterError("s and u must be nonzero")
    gap = s - u
    lattice = float(nearest_2pi(gap))
    if lattice > 0.0 and abs(gap - lattice) < 1e-9:
        raise ParameterError(
            f"s-u={gap} lies on the 2*pi lattice where the limit fails"
        )
    ns = _check_n_list(n_list)
    target = complex(kernel_h(s, u, p))
    devs = []
    for n in ns:
        scaled = complex(kernel_hn(s / n, u / n, n, p)) * float(n) ** (-2.0 / p.alpha)
        devs.append(abs(scaled - target))
    return np.array(devs)


# outer cells per block of envelope_quadrature's far part: a block's
# row x edge arrays stay near 200 KiB on the default grid
_ROW_BLOCK = 32


def envelope_quadrature(
    r1: float,
    r2: float,
    lam_list,
    quad: QuadratureSpec | None = None,
) -> np.ndarray:
    """Integrals of the power envelope over growing windows [-L, L]^2.

    The inner band integral is evaluated in closed form and the far part on
    a per-s geometric ladder anchored at its own singular points; a plain
    product grid cannot resolve the width-1 band once cells grow past unit
    width. The value sequence stabilizes when the envelope is integrable
    and keeps growing when it is not, which is the divergence certificate
    used by the existence checks.

    One pass serves every window. The outer cells and the far part are laid
    out for the largest window; window L keeps its own run of outer cells
    (quadrature._window_runs) and the far cells inside [-L, L], and its band
    is clipped at -L.

    The far part walks the outer cells _ROW_BLOCK rows at a time. Row s holds
    the merged ladders around 0 and s - 1, sorted, and keeps the cells that
    axis_cells would keep for those two anchors (a repeated edge makes a
    zero-width cell, which the width test drops) with midpoint <= s - 1.
    Every row takes the ladder length of the largest |s - 1|; the extra steps
    only add edges outside [-L, L]."""
    # written so that a NaN exponent fails the check
    if not (r1 > 0.0 and r2 > 0.0):
        raise ParameterError(f"r1 and r2 must be positive, got r1={r1}, r2={r2}")
    if r1 >= 1.0:
        raise QuadratureError(
            "the band integral diverges at u=0 once r1 >= 1; no finite window value exists"
        )
    lams = _check_windows(lam_list)
    # the closed-form band makes cost linear in resolution, so the default
    # can afford to be finer than the generic product grid
    base = quad if quad is not None else QuadratureSpec(cells_per_decade=16)
    base = replace(base, singular_points=(0.0, -1.0, 1.0))
    eps = base.inner_cutoff
    ratio = 10.0 ** (1.0 / base.cells_per_decade)
    e = 1.0 - r1
    anti = lambda u: np.sign(u) * np.abs(u) ** e / e
    lam = lams[-1]
    s, w = axis_cells(replace(base, outer_cutoff=lam))
    inner = np.array([anti(s) - anti(np.maximum(s - 1.0, -x)) for x in lams])
    far = np.flatnonzero(s - 1.0 > -lam)
    span = lam + float(np.max(np.abs(s[far] - 1.0), initial=0.0))
    steps = int(np.ceil(np.log(span / eps) / np.log(ratio))) + 1
    offsets = eps * ratio ** np.arange(steps + 1)
    ladder = np.concatenate([-offsets, offsets])
    for r0 in range(0, far.size, _ROW_BLOCK):
        rows = far[r0 : r0 + _ROW_BLOCK]
        hi = s[rows, None] - 1.0
        edges = np.concatenate(
            [np.broadcast_to(ladder, (rows.size, ladder.size)), hi + ladder], axis=1
        )
        edges.sort(axis=1)
        lo, up = edges[:, :-1], edges[:, 1:]
        mid = 0.5 * (lo + up)
        keep = (up - lo > 0.0) & (lo >= -lam) & (up <= lam) & (mid <= hi)
        for p in (0.0, hi):
            keep &= (up <= p - eps) | (lo >= p + eps)
        r, c = np.nonzero(keep)
        um = mid[r, c]
        cell = np.abs(um) ** (-r1) * np.abs(s[rows][r] - um) ** (-r2) * (up - lo)[r, c]
        for k, x in enumerate(lams):
            inside = ((lo >= -x) & (up <= x))[r, c]
            inner[k, rows] += np.bincount(r, weights=cell * inside, minlength=rows.size)
    return np.array([
        float((np.abs(s[a:b]) ** (-r1) * inner[k, a:b]) @ w[a:b])
        for k, (a, b) in enumerate(_window_runs(base, s, lams))
    ])
