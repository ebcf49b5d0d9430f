"""Output checks for the benchmark rounds.

Every number a round prints is compared with a computation made here, apart
from the program, or with a property the method must have; never with a
saved copy of earlier output. Only the atoms come from the program: they
are rebuilt from (seed, stream) with build_jump_measure, which is how the
command drew them. The kernels r and phi, the increment sums, the limit U,
the Gauss-Legendre rule, the slope fit and the KS statistic are the
benchmark's own.

Each check returns a list of error messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import roots_legendre

from harmstable.levy_model import build_jump_measure
from harmstable.rng_stable import RngStream

# rows of exponentials evaluated at once in the dense sums; 32 rows of 10^5
# complex exponentials take 51 MB
BLOCK_ROWS = 32

# two-sample KS: c(0.01) = sqrt(-ln(0.01 / 2) / 2)
KS_C_01 = math.sqrt(-math.log(0.005) / 2.0)


def r_kernel(s, alpha, hurst):
    """(1 - e^{-is}) / (is) * |s|^gamma, gamma = 1 - H - 1/alpha."""
    gamma = 1.0 - hurst - 1.0 / alpha
    return -np.expm1(-1j * s) / (1j * s) * np.abs(s) ** gamma


def phi(s, alpha, hurst):
    """|s|^{-2H-2/alpha} (1 - cos s), with 1 - cos s written as 2 sin^2(s/2)."""
    return 2.0 * np.sin(0.5 * s) ** 2 * np.abs(s) ** (-2.0 * hurst - 2.0 / alpha)


def dense_increments(s, a, n):
    """Y_j = sum_i e^{i j s_i} a_i for j < n, by blocked dense sums. Within a
    block of rows j0 + k the exponential is e^{i j0 s} e^{i k s}, both
    evaluated directly, so nothing accumulates from one block to the next."""
    inner = np.exp(1j * np.outer(np.arange(min(n, BLOCK_ROWS), dtype=float), s))
    out = np.empty(n, dtype=complex)
    for j0 in range(0, n, BLOCK_ROWS):
        j1 = min(n, j0 + BLOCK_ROWS)
        out[j0:j1] = inner[: j1 - j0] @ (np.exp(1j * j0 * s) * a)
    return out


def realized_limit(jm, alpha, hurst):
    """U = 2 sum_i phi(s_i) |v_i|^2."""
    v = jm.values
    return 2.0 * float(np.sum(phi(jm.locations, alpha, hurst) * (v.real**2 + v.imag**2)))


def partial_q(jm, alpha, hurst, n):
    """Q_1 .. Q_n from dense increments."""
    y = dense_increments(jm.locations, r_kernel(jm.locations, alpha, hurst) * jm.values, n)
    return np.cumsum(y.real**2 + y.imag**2)


def closed_form_unit_scale(alpha):
    """Scale of Re(sum_i Gamma_i^{-1/alpha} e^{i theta_i}) in closed form:
    (Gamma(2-a) cos(pi a/2)/(1-a) * Gamma((a+1)/2)/(sqrt(pi) Gamma(1+a/2)))^{1/a}."""
    if alpha == 1.0:
        c_alpha = math.pi / 2.0  # the limit of the expression below
    else:
        c_alpha = gamma_fn(2.0 - alpha) * math.cos(math.pi * alpha / 2.0) / (1.0 - alpha)
    e_cos = gamma_fn((alpha + 1.0) / 2.0) / (math.sqrt(math.pi) * gamma_fn(1.0 + alpha / 2.0))
    return float((c_alpha * e_cos) ** (1.0 / alpha))


def loglog_slope(ns, ys):
    x = np.log(np.asarray(ns, dtype=float))
    z = np.log(np.asarray(ys, dtype=float))
    xc = x - x.mean()
    return float(xc @ (z - z.mean()) / (xc @ xc))


def ks_distance(a, b):
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_critical_01(n, m):
    """Two-sample KS critical value at level 1% (Smirnov's limit form)."""
    return KS_C_01 * math.sqrt((n + m) / (n * m))


def parse_samples(text):
    """CSV of (replication, n, value) rows -> {(replication, n): value}."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["replication", "n", "value"]:
        raise ValueError("sample CSV lacks its replication,n,value header")
    return {(int(r), int(n)): float(v) for r, n, v in rows[1:]}


def _jump_measure(p, cli_seed, stream):
    return build_jump_measure(p["alpha"], p["half_width"], p["n_terms"], RngStream(cli_seed, stream))


def _grid_errors(samples, reps, ns):
    expected = {(r, n) for r in reps for n in ns}
    if set(samples) != expected:
        return [f"sample grid has {len(samples)} cells, expected {len(expected)}"]
    bad = [k for k, v in samples.items() if not math.isfinite(v)]
    return [f"non-finite sample at (replication, n) = {bad[0]}"] if bad else []


def lln_value_errors(samples, p, cli_seed, reps):
    """Each raw |Q_n/n - U| of the checked replications agrees with the dense
    recomputation to 1e-9 relative to Q_n/n."""
    errors = []
    for rep in reps:
        jm = _jump_measure(p, cli_seed, rep)
        u = realized_limit(jm, p["alpha"], p["hurst"])
        q = partial_q(jm, p["alpha"], p["hurst"], max(p["n_list"]))
        for n in p["n_list"]:
            qn = float(q[n - 1]) / n
            got = samples[(rep, n)]
            if not abs(got - abs(qn - u)) <= 1e-9 * qn:
                errors.append(f"lln rep {rep} n {n}: |Q_n/n - U| = {got!r}, dense sums give {abs(qn - u)!r}")
    return errors


def calibration_errors(jm, p):
    """JumpMeasure.calibration is within 1% of (2M)^{1/alpha} over the
    closed-form series scale."""
    want = (2.0 * p["half_width"]) ** (1.0 / p["alpha"]) / closed_form_unit_scale(p["alpha"])
    rel = abs(jm.calibration / want - 1.0)
    if not rel < 0.01:
        return [f"calibration {jm.calibration!r} is {rel:.3%} from the closed form {want!r}"]
    return []


def slope_errors(samples, p):
    """The log-log slope of the median errors lies in the workload's band."""
    ns = p["n_list"]
    medians = [float(np.median([v for (_, n), v in samples.items() if n == m])) for m in ns]
    if min(medians) <= 0.0:
        return [f"median errors must be positive, got {medians}"]
    slope = loglog_slope(ns, medians)
    lo, hi = p["slope_band"]
    if not lo < slope < hi:
        return [f"lln slope {slope:.4f} outside ({lo}, {hi}) around 2H-2 = {2 * p['hurst'] - 2:g}"]
    return []


def check_lln(text, p, cli_seed, reps):
    samples = parse_samples(text)
    errors = _grid_errors(samples, range(p["replications"]), p["n_list"])
    if errors:
        return errors
    errors += lln_value_errors(samples, p, cli_seed, reps)
    errors += calibration_errors(_jump_measure(p, cli_seed, 0), p)
    errors += slope_errors(samples, p)
    return errors


def limit_draw_errors(samples, p, cli_seed, draws):
    """Limit draw i (stream R + i) equals int_0^1 |A(t)|^2 dt - sum |a_i|^2 by
    the benchmark's own Gauss-Legendre rule, to 1e-8 relative. The scale is
    the larger of the value and 1e-6 sum |a_i|^2, the size of the terms that
    cancel, so a draw near zero is not held to rounding noise."""
    R, n = p["replications"], p["n"]
    x, w = roots_legendre(p["gl_nodes"])
    t, w = 0.5 * (x + 1.0), 0.5 * w
    gamma = 1.0 - p["hurst"] - 1.0 / p["alpha"]
    errors = []
    for i in draws:
        jm = _jump_measure(p, cli_seed, R + i)
        s = jm.locations
        amp = np.abs(s) ** gamma * jm.values
        total = 0.0
        for q0 in range(0, t.size, BLOCK_ROWS):
            phase = np.outer(t[q0 : q0 + BLOCK_ROWS], s)
            a = np.cos(phase) @ amp + 1j * (np.sin(phase) @ amp)
            total += float(w[q0 : q0 + BLOCK_ROWS] @ (a.real**2 + a.imag**2))
        diag = float(np.sum(amp.real**2 + amp.imag**2))
        want = total - diag
        got = samples[(R + i, n)]
        if not abs(got - want) <= 1e-8 * max(abs(got), 1e-6 * diag):
            errors.append(f"clt limit draw {i}: {got!r}, Gauss-Legendre ({p['gl_nodes']} nodes) gives {want!r}")
    return errors


def normalized_error_errors(samples, p, cli_seed, reps):
    """n^{2-2H} (Q_n/n - U) of the checked replications agrees with dense
    sums to 1e-9 relative to n^{2-2H} Q_n/n."""
    n = p["n"]
    scale = float(n) ** (2.0 - 2.0 * p["hurst"])
    errors = []
    for rep in reps:
        jm = _jump_measure(p, cli_seed, rep)
        qn = float(partial_q(jm, p["alpha"], p["hurst"], n)[-1]) / n
        want = scale * (qn - realized_limit(jm, p["alpha"], p["hurst"]))
        got = samples[(rep, n)]
        if not abs(got - want) <= 1e-9 * scale * qn:
            errors.append(f"clt normalized error {rep}: {got!r}, dense sums give {want!r}")
    return errors


def ks_errors(samples, p):
    """The two samples' KS distance is below the 1% critical value."""
    R, n = p["replications"], p["n"]
    a = [samples[(i, n)] for i in range(R)]
    b = [samples[(R + i, n)] for i in range(R)]
    d, crit = ks_distance(a, b), ks_critical_01(len(a), len(b))
    if not d < crit:
        return [f"clt KS distance {d:.4f} reaches the 1% critical value {crit:.4f}"]
    return []


def check_clt(text, p, cli_seed, checked, with_ks):
    samples = parse_samples(text)
    R = p["replications"]
    errors = _grid_errors(samples, range(2 * R), (p["n"],))
    if errors:
        return errors
    errors += limit_draw_errors(samples, p, cli_seed, checked)
    errors += normalized_error_errors(samples, p, cli_seed, checked)
    if with_ks:
        errors += ks_errors(samples, p)
    return errors


def identity_errors(text, p):
    """Both worst residuals of the identity sweep are finite and <= 1e-8."""
    results = json.loads(text)["results"]
    errors = []
    if results["trials"] != p["trials"]:
        errors.append(f"identity sweep ran {results['trials']} trials, asked {p['trials']}")
    for key in ("max_square_decomposition_residual", "max_error_representation_residual"):
        value = results[key]
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value <= p["tolerance"]):
            errors.append(f"identity {key} = {value!r} above {p['tolerance']:g}")
    return errors


def _growth(values):
    a, b = values
    return b / a - 1.0


def condition_errors(text, p, envelope_integrable):
    """Condition growth and, for an integrable envelope, envelope growth lie
    in [0, 5%); a divergent envelope grows by more than 20%."""
    results = json.loads(text)["results"]
    errors = []
    if list(results["lambdas"]) != list(p["lambdas"]):
        errors.append(f"check-condition used lambdas {results['lambdas']}")
        return errors
    cond = _growth(results["condition_values"])
    if not 0.0 <= cond < 0.05:
        errors.append(f"condition growth {cond:.4%} outside [0, 5%)")
    env = _growth(results["envelope_values"])
    r1 = results["r1"]
    if envelope_integrable and not 0.0 <= env < 0.05:
        errors.append(f"envelope ({r1}, {results['r2']}) growth {env:.4%} outside [0, 5%)")
    if not envelope_integrable and not env > 0.20:
        errors.append(f"envelope ({r1}, {results['r2']}) growth {env:.4%} not above 20%")
    return errors


def check_round(workload, round_index, cli_seed, outputs):
    """Errors in one round's outputs: a list of (return code, stdout) per
    command, in the order of workload.round_commands. A failed command is
    counted by the caller and its output is not checked."""
    p = workload.params
    if workload.name == "lln":
        reps = workload.checked_indices(cli_seed, round_index, p["replications"])
        checks = [lambda text: check_lln(text, p, cli_seed, reps)]
    elif workload.name == "clt":
        draws = workload.checked_indices(cli_seed, round_index, p["replications"])
        checks = [lambda text: check_clt(text, p, cli_seed, draws, with_ks=round_index == 0)]
    else:
        checks = [
            lambda text: identity_errors(text, p),
            lambda text: condition_errors(text, p, envelope_integrable=True),
            lambda text: condition_errors(text, p, envelope_integrable=False),
        ]
    errors = []
    for (rc, text), check in zip(outputs, checks):
        if rc != 0:
            continue
        try:
            errors += check(text)
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"{workload.name} output is malformed: {exc!r}")
    return errors
