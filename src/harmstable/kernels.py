"""Deterministic kernels of the unit-increment model.

Everything in this module is a pure function of real inputs.  The complex
exponential ratios are evaluated through the half-angle rewrite

    (exp(ix) - 1) / (ix) = exp(ix/2) * sin(x/2) / (x/2)

which is free of cancellation near x = 0 and carries its removable limit 1
automatically, from one complex exponential h = exp(ix/2) per point.
All functions accept scalars or numpy arrays and broadcast; a scalar input
gives a numpy scalar, through out[()] of the 0-d result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularityError

__all__ = [
    "ModelParams",
    "kernel_r",
    "kernel_gn",
    "kernel_hn",
    "kernel_h",
    "phi_qv",
    "psi",
    "psi_norm_constant",
    "nearest_2pi",
]

TWO_PI = 2.0 * math.pi
TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - TWO_PI, the part the double drops

# Inputs with |s| below this are treated as exact zeros when the zero limit
# exists; smaller magnitudes would overflow |s|**gamma for gamma < 0 anyway.
ZERO_FLOOR = 1e-300


@dataclass(frozen=True)
class ModelParams:
    """Stability index and self-similarity index of the model.

    alpha must lie in (0, 2) and hurst in (0, 1).  The derived exponent
    gamma = 1 - hurst - 1/alpha and the slow-growth regime flag are exposed
    as properties so they can never drift out of sync with the fields.
    """

    alpha: float
    hurst: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 2.0):
            raise ParameterError(f"alpha must be in (0, 2), got {self.alpha}")
        if not (0.0 < self.hurst < 1.0):
            raise ParameterError(f"hurst must be in (0, 1), got {self.hurst}")

    @property
    def gamma(self) -> float:
        return 1.0 - self.hurst - 1.0 / self.alpha

    @property
    def clt_regime(self) -> bool:
        """True when the normalized quadratic error admits its weak limit."""
        return self.hurst > 0.5 and self.alpha * (1.0 - self.hurst) < 0.5


def half_angle_exp(s: np.ndarray) -> np.ndarray:
    """h = exp(i s/2) of a real array, evaluated in its own complex buffer."""
    h = np.multiply(s, 0.5j, out=np.empty(np.shape(s), dtype=complex))
    return np.exp(h, out=h)


def r_from_half_angle(s: np.ndarray, h: np.ndarray, gamma: float) -> np.ndarray:
    """Overwrite h = exp(i s/2) with r(s) = conj(h) Im(h)/(s/2) |s|^gamma,
    that is (1 - e^{-is})/(is) |s|^gamma, and return it. The zero rule is
    kernel_r's."""
    mag = np.abs(s)
    at_zero = mag < ZERO_FLOOR
    if gamma < 0.0 and at_zero.any():
        raise SingularityError("kernel_r is singular at s = 0 for gamma < 0")
    ratio = np.divide(h.imag, s, out=np.zeros(mag.shape), where=~at_zero)
    ratio *= 2.0  # now Im(h)/(s/2) bit for bit, with no array for s/2
    mag **= gamma
    ratio *= mag
    return np.multiply(np.conjugate(h, out=h), ratio, out=h)


def kernel_r(s, p: ModelParams):
    """Frequency kernel of a unit-time increment: (1-e^{-is})/(is) * |s|^gamma.

    For gamma >= 0 evaluation at s = 0 returns 0 (the limit for gamma > 0 and
    the convention at gamma == 0); for gamma < 0 it raises SingularityError.
    """
    arr = np.asarray(s, dtype=float)
    return r_from_half_angle(arr, half_angle_exp(arr), p.gamma)[()]


def kernel_gn(x, n: int):
    """Geometric sum of n unit-spaced complex exponentials at frequency x.

    Computed as the ratio form e^{i(n-1)y/2} * sin(ny/2)/sin(y/2) after
    reducing x by its nearest multiple k of 2*pi in two parts, y = x - k*TWO_PI
    (exact for |x| < 4 pi) and -k*TWO_PI_LO, the first-order correction each
    sine takes, so the ratio keeps its relative accuracy next to the zeros
    2*pi*k/n; a zero denominator takes the removable limit n.
    """
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    arr = np.asarray(x, dtype=float)
    k = np.round(arr / TWO_PI)
    y = arr - TWO_PI * k
    half_lo = -0.5 * TWO_PI_LO * k
    num = np.sin(0.5 * n * y) + n * half_lo * np.cos(0.5 * n * y)
    den = np.sin(0.5 * y) + half_lo * np.cos(0.5 * y)
    ratio = np.divide(num, den, out=np.full(y.shape, float(n)), where=den != 0.0)
    out = np.exp(0.5j * (n - 1) * y) * ratio
    return out[()]


def _below_diagonal(s, u, pair):
    """Complex pair kernel of broadcast s and u: pair(sv, uv) on the points
    with u < s, which are all pair ever sees, and 0 elsewhere."""
    s_b, u_b = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(u, dtype=float))
    out = np.zeros(s_b.shape, dtype=complex)
    mask = u_b < s_b
    if np.any(mask):
        out[mask] = pair(s_b[mask], u_b[mask])
    return out[()]


def kernel_hn(s, u, n: int, p: ModelParams):
    """Pre-limit double kernel n^{1-2H} g_n(s-u) r(s) conj(r(u)) 1_{u<s}."""
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    scale = float(n) ** (1.0 - 2.0 * p.hurst)

    def pair(sv, uv):
        return scale * kernel_gn(sv - uv, n) * kernel_r(sv, p) * np.conj(kernel_r(uv, p))

    return _below_diagonal(s, u, pair)


def kernel_h(s, u, p: ModelParams):
    """Limit double kernel: the n-free quadrature of e^{it(s-u)} over t in [0,1]
    times |su|^gamma, supported on u < s.

    The exponential prefactor is (e^{i(s-u)} - 1)/(i(s-u)) with removable
    limit 1 on the diagonal; the power factor is singular on the axes when
    gamma < 0.
    """
    gamma = p.gamma

    def pair(sv, uv):
        prod = np.abs(sv * uv)
        if gamma < 0.0 and np.any(prod < ZERO_FLOOR):
            raise SingularityError("kernel_h is singular on the axes for gamma < 0")
        # (e^{ix}-1)/(ix) is the conjugate of r's prefactor, r at gamma = 0
        x = sv - uv
        return np.conj(r_from_half_angle(x, half_angle_exp(x), 0.0)) * prod**gamma

    return _below_diagonal(s, u, pair)


def phi_qv(s, p: ModelParams):
    """Quadratic-variation integrand |s|^{-2H-2/alpha} (1 - cos s).

    Evaluated as 2 sin^2(s/2) |s|^{-2H-2/alpha}; s = 0 always raises.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(np.abs(arr) < ZERO_FLOOR):
        raise SingularityError("phi_qv is singular at s = 0")
    expo = -2.0 * p.hurst - 2.0 / p.alpha
    out = 2.0 * np.sin(0.5 * arr) ** 2 * np.abs(arr) ** expo
    return out[()]


def psi_norm_constant(r_exp: float, alpha: float) -> float:
    """Normalizing constant making the integral of psi^alpha equal 1."""
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if r_exp * alpha <= 1.0:
        raise ParameterError(
            f"need r_exp * alpha > 1 for integrability, got {r_exp * alpha}"
        )
    return (2.0 * (1.0 + 1.0 / (r_exp * alpha - 1.0))) ** (-1.0 / alpha)


def psi(s, r_exp: float, alpha: float):
    """Reference envelope: constant on |s| <= 1, |s|^{-r_exp} decay outside,
    normalized so that psi^alpha integrates to 1 over the line."""
    c = psi_norm_constant(r_exp, alpha)
    arr = np.asarray(s, dtype=float)
    a = np.abs(arr)
    out = np.ones(a.shape)
    tail = a > 1.0
    out[tail] = a[tail] ** (-r_exp)
    out *= c
    return out[()]


def nearest_2pi(x):
    """Nearest multiple of 2*pi to x >= 0, ties resolved to the smaller one."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ParameterError("nearest_2pi requires nonnegative input")
    j = np.ceil(arr / TWO_PI - 0.5)
    out = TWO_PI * j
    return out[()]

