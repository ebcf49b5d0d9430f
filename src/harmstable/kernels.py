"""Deterministic kernels of the unit-increment model.

Everything in this module is a pure function of real inputs.  The complex
exponential ratios are evaluated through the half-angle rewrite

    (exp(ix) - 1) / (ix) = exp(ix/2) * sin(x/2) / (x/2)

which is free of cancellation near x = 0 and carries its removable limit 1
automatically, from one tangent-formed h = exp(ix/2) per point.
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
    "psi",
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


def half_angle_exp(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """h = exp(i s/2) of a real array from one tangent (_sin_cos of s/4),
    written into out (complex, of s's shape) or a new buffer."""
    h = np.empty(np.shape(s), dtype=complex) if out is None else out
    h.imag, h.real = _sin_cos(np.multiply(s, 0.25))
    return h


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


def _sin_cos(half):
    """sin and cos of the angles 2 * half from one tangent t = tan(half), as
    2t / (1 + t^2) and (1 - t^2) / (1 + t^2) = 2 / (1 + t^2) - 1: numpy's
    tangent costs a fraction of its sine and cosine (34 against 440 us per
    16,384 values on an AVX-512 host)."""
    t = np.tan(half)
    w = 2.0 / (1.0 + t * t)
    t *= w
    w -= 1.0
    return t, w


def kernel_gn(x, n: int):
    """Geometric sum of n unit-spaced complex exponentials at frequency x.

    Computed as the ratio form e^{i(n-1)y/2} * sin(ny/2)/sin(y/2) after
    reducing x by its nearest multiple k of 2*pi in two parts, y = x - k*TWO_PI
    (exact for |x| < 4 pi) and -k*TWO_PI_LO, the first-order correction that
    each sine and cosine of ny/2 and y/2 takes, so the ratio keeps its
    relative accuracy next to the zeros 2*pi*k/n; a zero denominator takes
    the removable limit n. The phase is (cos(ny/2) + i sin(ny/2)) times
    (cos(y/2) - i sin(y/2)), from the same four values, which come from the
    tangents of ny/4 and y/4 (_sin_cos).
    """
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    arr = np.asarray(x, dtype=float)
    k = np.round(arr / TWO_PI)
    y = arr - TWO_PI * k
    half_lo = -0.5 * TWO_PI_LO * k
    sin_n, cos_n = _sin_cos(0.25 * n * y)
    sin_1, cos_1 = _sin_cos(0.25 * y)
    sin_n, cos_n = sin_n + n * half_lo * cos_n, cos_n - n * half_lo * sin_n
    sin_1, cos_1 = sin_1 + half_lo * cos_1, cos_1 - half_lo * sin_1
    out = np.empty(y.shape, dtype=complex)
    out.real = cos_n * cos_1 + sin_n * sin_1
    out.imag = sin_n * cos_1 - cos_n * sin_1
    out *= np.divide(sin_n, sin_1, out=np.full(y.shape, float(n)), where=sin_1 != 0.0)
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


def psi(s, alpha: float):
    """Reference envelope: constant on |s| <= 1, |s|^{-2/alpha} decay outside,
    at the constant c = 4^{-1/alpha}: the plateau and the tail each hold half
    of the integral of psi^alpha = 4 c^alpha = 1 over the line."""
    if not alpha > 0.0:  # written so that a NaN alpha fails too
        raise ParameterError(f"alpha must be positive, got {alpha}")
    arr = np.asarray(s, dtype=float)
    a = np.abs(arr)
    out = np.ones(a.shape)
    tail = a > 1.0
    out[tail] = a[tail] ** (-2.0 / alpha)
    out *= 4.0 ** (-1.0 / alpha)
    return out[()]


def nearest_2pi(x):
    """Nearest multiple of 2*pi to x >= 0, ties resolved to the smaller one."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ParameterError("nearest_2pi requires nonnegative input")
    j = np.ceil(arr / TWO_PI - 0.5)
    out = TWO_PI * j
    return out[()]

