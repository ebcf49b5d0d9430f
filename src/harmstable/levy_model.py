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
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularityError
from .kernels import psi
from .quadrature import QuadratureSpec, grid_integral_2d
from .rng_stable import RngStream, poisson_arrivals

__all__ = [
    "JumpMeasure",
    "build_jump_measure",
    "integrate_qv",
    "double_integrate",
    "condition_value",
    "series_unit_scale",
]

log = logging.getLogger(__name__)

# ordered atom pairs per block of double_integrate, the one pair walk
_PAIR_BLOCK = 16384

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
        # written so that a NaN location or half_width fails the check
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
    calibration = (2.0 * half_width) ** (1.0 / alpha) / series_unit_scale(alpha)

    g = rng.generator
    locations = g.uniform(-half_width, half_width, n_terms)
    weights = poisson_arrivals(n_terms, rng)
    angles = g.uniform(0.0, 2.0 * np.pi, n_terms)
    # calibration * Gamma_i^(-1/alpha), in the arrivals' buffer
    np.multiply(calibration, np.power(weights, -1.0 / alpha, out=weights), out=weights)

    for _ in range(64):
        # untied, any sort gives the stable order; ties redraw by stable order
        order = np.argsort(locations)
        ls = locations[order]
        dup = np.flatnonzero(ls[1:] == ls[:-1])
        if dup.size == 0:
            break
        order = np.argsort(locations, kind="stable")
        offenders = order[dup + 1]
        log.warning(
            "resampling %d tied atom location(s) at %s",
            offenders.size,
            ls[dup][:4],
        )
        locations[offenders] = g.uniform(-half_width, half_width, offenders.size)
    else:
        raise RuntimeError("could not resolve tied atom locations")

    # gather the real factors one at a time and drop each array once spent,
    # so at most one per-atom temporary lives beside the atoms; then write
    # weight * exp(i angle) as weight * (cos, sin) into one complex array
    del locations
    weights = weights[order]
    angles = angles[order]
    del order
    values = np.empty(n_terms, dtype=complex)
    np.multiply(weights, np.cos(angles, out=values.real), out=values.real)
    np.multiply(weights, np.sin(angles, out=values.imag), out=values.imag)
    return JumpMeasure(ls, values, half_width, calibration)


def _kernel_values(f, what: str, *where: np.ndarray) -> np.ndarray:
    """f(*where), checked to be a scalar or one value per point, and finite;
    a non-finite value raises naming its coordinates."""
    vals = np.asarray(f(*where))
    if vals.shape not in ((), where[0].shape):
        raise ParameterError(
            f"{what} returned shape {vals.shape} for {where[0].size} points"
        )
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = int(np.argmax(bad))
        at = ", ".join(repr(w[idx]) for w in where)
        raise SingularityError(f"{what} is non-finite at ({at})")
    return vals


def _pair_blocks(n: int):
    """Index arrays (i, k) of the atom pairs k < i in row order, the order of
    np.tril_indices(n, -1), _PAIR_BLOCK pairs at a time. Row r's pairs start
    at r(r-1)/2, so a block needs only that O(n) table and its own pairs."""
    start = np.arange(n) * (np.arange(n) - 1) // 2
    total = n * (n - 1) // 2
    for p0 in range(0, total, _PAIR_BLOCK):
        p1 = min(total, p0 + _PAIR_BLOCK)
        r0, r1 = np.searchsorted(start, (p0, p1 - 1), side="right") - 1
        rows = np.arange(r0, r1 + 1)
        first = start[rows]
        i = np.repeat(rows, np.minimum(first + rows, p1) - np.maximum(first, p0))
        yield i, np.arange(p0, p1) - start[i]


def integrate_qv(jm: JumpMeasure, phi) -> float:
    """Integral of phi against the pathwise quadratic variation measure:
    sum_i phi(s_i) * |value_i|^2. phi must return one value per atom, or a
    scalar."""
    if jm.n_terms == 0:
        return 0.0
    vals = np.asarray(_kernel_values(phi, "quadratic-variation integrand", jm.locations), float)
    if np.any(vals < 0.0):
        idx = int(np.argmax(vals < 0.0))
        raise ParameterError(
            f"quadratic-variation integrand is negative at location "
            f"{jm.locations[idx]!r}"
        )
    weights = jm.values.real**2 + jm.values.imag**2
    return float(np.sum(vals * weights))


def double_integrate(jm: JumpMeasure, f) -> complex:
    """Strictly lower-triangular double integral:
    sum over location-ordered pairs u_k < s_i of f(s_i, u_k) * conj(v_k) * v_i.

    The kernel is evaluated only on pairs inside the triangle, one block of
    _pair_blocks at a time, so integrands that are singular or undefined
    elsewhere are safe. It must return one value per pair, or a scalar.
    """
    s = jm.locations
    z = jm.values
    total = 0j
    for i, k in _pair_blocks(s.size):
        vals = _kernel_values(f, "arity-2 kernel", s[i], s[k])
        total += complex(np.sum(vals * np.conj(z[k]) * z[i]))
    return total


def condition_value(f, alpha: float, quad: QuadratureSpec) -> float:
    """Existence functional of an arity-2 kernel:
    the grid estimate of  integral of |f|^alpha * (1 + log_+(|f| / (psi(s) psi(u)))),
    with the reference envelope psi = kernels.psi(., 2/alpha, alpha), whose
    alpha-th power integrates to 1 over the line.

    Monotone nondecreasing in the outer cutoff and under inner-cutoff
    refinement by powers of ten, by construction of the grid.
    """
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must be in (0, 2], got {alpha}")

    def integrand(s, u):
        fv = np.abs(np.asarray(f(s, u)))
        env = psi(s, 2.0 / alpha, alpha) * psi(u, 2.0 / alpha, alpha)
        out = np.zeros(np.broadcast(s, u).shape)
        pos = fv > 0.0
        ratio = np.divide(fv, env, out=np.ones_like(out), where=pos)
        out[pos] = fv[pos] ** alpha * (1.0 + np.log(np.maximum(ratio[pos], 1.0)))
        return out

    return grid_integral_2d(integrand, quad, label="condition integrand")
