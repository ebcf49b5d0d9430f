"""Atomic realization of the driving complex stable noise on [-M, M].

A JumpMeasure is a finite list of atoms (location, complex value) standing in
for the restriction of an isotropic alpha-stable random measure to the
window.  Atom values follow the shot-noise series construction
calibration * Gamma_i^(-1/alpha) * exp(i*theta_i) with uniform locations;
the calibration constant converts the unit series to the sampler scale
convention of rng_stable (see series_unit_scale below) and carries the
(2M)^(1/alpha) window factor.

Integrals against the measure are plain atom sums, so algebraic identities
between them hold exactly, not just in the limit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, SingularityError
from .kernels import psi
from .quadrature import QuadratureSpec, _check_windows, grid_integral_2d
from .rng_stable import RngStream

__all__ = [
    "JumpMeasure",
    "build_jump_measure",
    "integrate_qv",
    "double_integrate",
    "condition_value",
    "series_unit_scale",
]

log = logging.getLogger(__name__)

# atoms per side of double_integrate's square pair tiles: a tile holds
# 128^2 = 16,384 pairs
_TILE = 128

CALIBRATION_SEED = 20260301

# Independent Monte Carlo record of the unit series scale, frozen from
# estimate_series_unit_scale(alpha, n_terms=6000, replications=60000) at the
# calibration seed; the closed form series_unit_scale is tested against it.
_UNIT_SERIES_SCALE: dict[float, float] = {
    0.5: 0.9116814153143168,
    0.6: 0.9229281905923832,
    0.7: 0.9411715983126737,
    0.8: 0.9584288906939292,
    0.9: 0.9785266739927605,
    1.0: 1.0032132333661572,
    1.1: 1.0327679506895435,
    1.2: 1.068707246634064,
    1.3: 1.114515253533293,
    1.4: 1.172875553282591,
    1.5: 1.2503629887005085,
    1.6: 1.3571573406029347,
    1.7: 1.5175916175407997,
    1.8: 1.7901909207022983,
    1.9: 2.414822088253012,
}


@dataclass(frozen=True, eq=False)
class JumpMeasure:
    """Atoms of one realization, sorted by strictly increasing location."""

    locations: np.ndarray
    values: np.ndarray
    half_width: float
    calibration: float

    def __post_init__(self) -> None:
        if self.locations.shape != self.values.shape or self.locations.ndim != 1:
            raise ParameterError("locations and values must be aligned 1-d arrays")
        # written so that a NaN location or half_width fails the checks
        if not 0.0 < self.half_width < np.inf:
            raise ParameterError(f"half_width must be finite and positive, got {self.half_width}")
        if self.locations.size and not (
            np.all(self.locations[1:] > self.locations[:-1])
            and abs(self.locations[0]) <= self.half_width
            and abs(self.locations[-1]) <= self.half_width
        ):
            raise ParameterError(
                "locations must be strictly increasing inside [-half_width, half_width]"
            )

    @property
    def n_terms(self) -> int:
        return self.locations.size


def series_unit_scale(alpha: float) -> float:
    """Scale of Re(unit series) under the sampler convention, in closed form
    (C_alpha E|cos theta|^alpha)^(1/alpha), with the stable tail constant
    C_alpha = Gamma(2-alpha) cos(pi alpha/2)/(1-alpha) (Samorodnitsky & Taqqu
    1994, eq. 1.2.9) written through sinc, so alpha = 1 needs no branch."""
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must be in (0, 2), got {alpha}")
    half = 0.5 * alpha
    c_alpha = math.gamma(2.0 - alpha) * (math.pi / 2.0) * float(np.sinc(0.5 - half))
    e_cos = math.gamma(0.5 + half) / (math.sqrt(math.pi) * math.gamma(1.0 + half))
    return (c_alpha * e_cos) ** (1.0 / alpha)


def _series_remainder_var(alpha: float, n_terms: int) -> float:
    """Variance of the real part of the dropped series tail beyond n_terms."""
    from scipy.special import gammaln  # loaded only by the Monte Carlo check
    c = 2.0 / alpha
    i = np.arange(n_terms + 1, n_terms + 61, dtype=float)
    head = float(np.exp(gammaln(i - c) - gammaln(i)).sum())
    tail = (n_terms + 60.5) ** (1.0 - c) / (c - 1.0)
    return 0.5 * (head + tail)


def estimate_series_unit_scale(
    alpha: float,
    n_terms: int = 4000,
    replications: int = 20000,
    seed: int = CALIBRATION_SEED,
) -> float:
    """Empirical characteristic-function estimate of the unit series scale.

    Draws truncated series, Rao-Blackwellizes the ECF over the rotation group
    (the ECF of an isotropic variable is E[J0(t|Z|)]), and compensates the
    truncated tail by its Gaussian characteristic exponent before matching
    exp(-(sigma*t)**alpha) on a refined t-grid.
    """
    from scipy.special import j0
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must be in (0, 2), got {alpha}")
    g = RngStream(seed, 0).generator
    mods = np.empty(replications)
    done = 0
    per = max(1, int(6_000_000 // n_terms))
    while done < replications:
        r = min(per, replications - done)
        gam = np.cumsum(g.exponential(1.0, (r, n_terms)), axis=1)
        theta = g.uniform(0.0, 2.0 * np.pi, (r, n_terms))
        series = np.sum(gam ** (-1.0 / alpha) * np.exp(1j * theta), axis=1)
        mods[done : done + r] = np.abs(series)
        done += r
    v = _series_remainder_var(alpha, n_terms)
    sigma = 1.0
    for _ in range(2):
        t_grid = np.linspace(0.25, 0.9, 8) / sigma
        ecf = np.array([j0(t * mods).mean() for t in t_grid])
        exponent = -np.log(ecf) + 0.5 * v * t_grid**2
        sigma = float(np.median(exponent / t_grid**alpha)) ** (1.0 / alpha)
    return sigma


def build_jump_measure(
    alpha: float,
    half_width: float,
    n_terms: int,
    rng: RngStream,
) -> JumpMeasure:
    """Draw one atomic realization of the noise on [-half_width, half_width]."""
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must be in (0, 2), got {alpha}")
    if not (math.isfinite(half_width) and half_width > 0.0):
        raise ParameterError(f"half_width must be finite and positive, got {half_width}")
    if n_terms < 1:
        raise ParameterError(f"n_terms must be a positive integer, got {n_terms}")
    try:  # float power, which numpy's SIMD power can differ from in the last bit
        calibration = (2.0 * half_width) ** (1.0 / alpha) / series_unit_scale(alpha)
    except OverflowError:
        raise SingularityError(f"calibration (2M)^(1/alpha) overflows at alpha={alpha}") from None

    g = rng.generator
    locations = g.uniform(-half_width, half_width, n_terms)
    locations.sort()
    for _ in range(64):
        tied = np.flatnonzero(locations[1:] == locations[:-1]) + 1
        if tied.size == 0:
            break
        log.warning("resampling %d tied atom location(s) at %s", tied.size, locations[tied][:4])
        locations[tied] = g.uniform(-half_width, half_width, tied.size)
        locations.sort()
    else:
        raise RuntimeError("could not resolve tied atom locations")

    # given Gamma_{N+1} = T, the first N arrivals are N iid uniforms on (0, T]
    # (LePage, Woodroofe & Zinn 1981), assigned in location order; each is
    # turned into calibration * Gamma_i^(-1/alpha) in its own buffer
    weights = g.random(n_terms)
    np.subtract(1.0, weights, out=weights)
    weights *= g.standard_gamma(n_terms + 1)
    with np.errstate(over="ignore"):
        np.multiply(calibration, np.power(weights, -1.0 / alpha, out=weights), out=weights)
    if not math.isfinite(weights.max()):
        raise SingularityError("atom value calibration * Gamma^(-1/alpha) overflows")
    # phases exp(i theta), theta uniform on [0, 2 pi), times the weights, in
    # place from one tangent t = tan(theta/2): ((1 - t^2) + 2it) / (1 + t^2)
    t = g.uniform(0.0, np.pi, n_terms)
    np.tan(t, out=t)
    values = np.empty(n_terms, dtype=complex)
    re, im = values.real, values.imag
    np.multiply(t, t, out=re)
    weights /= np.add(re, 1.0, out=im)
    np.subtract(1.0, re, out=re)
    re *= weights
    np.multiply(t, weights, out=im)
    im *= 2.0
    return JumpMeasure(locations, values, half_width, calibration)


def _kernel_values(f, what: str, *where: np.ndarray) -> np.ndarray:
    """f(*where), checked to broadcast to the shape of the broadcast
    coordinates, so a scalar or one value per point, and finite; a non-finite
    value raises naming its coordinates."""
    shape = np.broadcast_shapes(*(w.shape for w in where))
    vals = np.asarray(f(*where))
    try:
        full = np.broadcast_to(vals, shape)
    except ValueError:
        raise ParameterError(
            f"{what} returned shape {vals.shape} for points of shape {shape}"
        ) from None
    if not np.all(np.isfinite(vals)):
        idx = np.unravel_index(int(np.argmax(~np.isfinite(full))), shape)
        at = ", ".join(repr(float(np.broadcast_to(w, shape)[idx])) for w in where)
        raise SingularityError(f"{what} is non-finite at ({at})")
    return vals


def integrate_qv(jm: JumpMeasure) -> float:
    """Total mass of the pathwise quadratic variation measure, sum_i |value_i|^2.
    A non-finite result, as from |value_i|^2 overflowing, raises
    SingularityError."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(jm.values.real**2 + jm.values.imag**2))
    if not math.isfinite(total):
        raise SingularityError("quadratic-variation integral is non-finite: |value_i|^2 overflows")
    return total


def double_integrate(jm: JumpMeasure, f) -> complex:
    """Strictly lower-triangular double integral:
    sum over location-ordered pairs u_k < s_i of f(s_i, u_k) * conj(v_k) * v_i.

    The pairs are walked in square tiles of _TILE atoms. A tile of rows I
    and earlier columns K evaluates f once on the views s_I[:, None] and
    s_K[None, :] and adds z_I @ (vals @ conj(z_K)), or vals (sum z_I)(sum
    conj z_K) for a scalar kernel; a diagonal tile evaluates f on its own
    pairs k < i, taken from one np.tril_indices table per call. The kernel
    thus sees only pairs inside the triangle, so integrands that are
    singular or undefined elsewhere are safe. It must return values that
    broadcast to its points' shape: one value per pair, or a scalar.
    """
    s = jm.locations
    z = jm.values
    zc = np.conj(z)
    tri_i, tri_k = np.tril_indices(min(_TILE, s.size), -1)
    total = 0j
    for i0 in range(0, s.size, _TILE):
        s_i, z_i = s[i0 : i0 + _TILE], z[i0 : i0 + _TILE]
        for k0 in range(0, i0, _TILE):
            zc_k = zc[k0 : k0 + _TILE]
            vals = _kernel_values(f, "arity-2 kernel", s_i[:, None], s[None, k0 : k0 + _TILE])
            if vals.ndim == 0:
                total += complex(vals * z_i.sum() * zc_k.sum())
            else:
                total += complex(z_i @ (np.broadcast_to(vals, (s_i.size, zc_k.size)) @ zc_k))
        pairs = s_i.size * (s_i.size - 1) // 2
        if pairs:
            i, k = tri_i[:pairs], tri_k[:pairs]
            vals = _kernel_values(f, "arity-2 kernel", s_i[i], s_i[k])
            total += complex(np.sum(vals * zc[i0 + k] * z_i[i]))
    return total


def condition_value(f, alpha: float, lam_list, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Existence functional of an arity-2 kernel over growing windows
    [-L, L]^2, one value per L in lam_list:
    the grid estimate of  integral of |f|^alpha * (1 + log_+(|f| / (psi(s) psi(u)))),
    with the reference envelope kernels.psi, whose alpha-th power integrates
    to 1 over the line.

    The integrand is evaluated once, on the grid of the largest window (quad,
    default QuadratureSpec(), with its outer cutoff replaced), and each
    window sums its own cells; a window's value equals a pass over its own
    grid up to rounding. Monotone nondecreasing in the window and under
    inner-cutoff refinement by powers of ten, by construction of the grid.
    """
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must be in (0, 2], got {alpha}")
    lams = _check_windows(lam_list)
    base = quad if quad is not None else QuadratureSpec()

    # an overflow or zero divide leaves a non-finite cell, which
    # grid_integral_2d reports as the one signal, with no warning first
    def integrand(s, u):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            fv = np.abs(np.asarray(f(s, u)))
            env = psi(s, alpha) * psi(u, alpha)
            out = np.zeros(np.broadcast(s, u).shape)
            pos = fv != 0.0  # so that a NaN value reaches the non-finite check
            ratio = np.divide(fv, env, out=np.ones_like(out), where=pos)
            out[pos] = fv[pos] ** alpha * (1.0 + np.log(np.maximum(ratio[pos], 1.0)))
        return out

    return grid_integral_2d(
        integrand, replace(base, outer_cutoff=lams[-1]), lams, label="condition integrand"
    )
