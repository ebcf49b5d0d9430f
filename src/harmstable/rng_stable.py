"""Reproducible random streams and stable-law samplers.

Streams are keyed by (master_seed, stream_index) through a counter-based
Philox generator, so any replication can be regenerated in isolation and
concurrent tasks can each own an independent stream.

Scale convention used throughout: a symmetric alpha-stable draw with scale
sigma has characteristic function exp(-sigma**alpha * |t|**alpha).  An
isotropic complex draw with scale sigma has a real part distributed exactly
as that law, which is what the cross-sampler tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, SingularityError

__all__ = [
    "RngStream",
    "sample_isotropic_stable",
    "poisson_arrivals",
]


@dataclass(frozen=True)
class RngStream:
    """Independent substream addressed by (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.stream_index < 0:
            raise ParameterError("seed and stream index must be nonnegative")

    @cached_property
    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence([self.master_seed, self.stream_index])
        return np.random.Generator(np.random.Philox(seq))


def _check_stable_args(alpha: float, scale: float) -> None:
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must be in (0, 2], got {alpha}")
    if scale < 0.0:
        raise ParameterError(f"scale must be nonnegative, got {scale}")


def _positive_exponential(g: np.random.Generator, size) -> np.ndarray:
    w = g.exponential(1.0, size)
    # an exact 0.0 is astronomically rare but would poison the power laws
    while True:
        bad = w == 0.0
        if not np.any(bad):
            return w
        w[bad] = g.exponential(1.0, int(bad.sum()))


def _positive_stable(rho: float, g: np.random.Generator, shape) -> np.ndarray:
    """One-sided rho-stable amplitude with Laplace transform exp(-s**rho).

    Zolotarev's integral representation, evaluated in log space so that
    rho close to 1 does not overflow the inner powers.
    """
    u = g.uniform(0.0, np.pi, shape)
    np.clip(u, 1e-12, np.pi - 1e-12, out=u)
    w = _positive_exponential(g, shape)
    ratio = (1.0 - rho) / rho
    log_x = (
        np.log(np.sin(rho * u))
        + ratio * np.log(np.sin((1.0 - rho) * u))
        - np.log(np.sin(u)) / rho
        - ratio * np.log(w)
    )
    return np.exp(log_x)


def sample_isotropic_stable(alpha: float, scale: float, rng: RngStream, size: int) -> np.ndarray:
    """One array of size rotation-invariant complex alpha-stable draws.

    Construction: a common one-sided (alpha/2)-stable amplitude multiplying a
    standard complex Gaussian.  The real part then follows the scalar
    symmetric alpha-stable law at the same scale parameter, which the tests
    check against a Chambers-Mallows-Stuck sampler (sample_sas in
    tests/oracles.py).  A draw that is not finite, as when the amplitude
    overflows for alpha near 0, raises SingularityError.
    """
    _check_stable_args(alpha, scale)
    g = rng.generator
    gauss = g.normal(0.0, 1.0, (size, 2))
    z = gauss[:, 0] + 1j * gauss[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        if alpha == 2.0:
            out = np.sqrt(2.0) * scale * z
        else:
            amp = _positive_stable(0.5 * alpha, g, z.shape)
            out = np.sqrt(2.0) * scale * np.sqrt(amp) * z
    if not np.all(np.isfinite(out)):
        raise SingularityError(f"isotropic stable draw is non-finite at alpha={alpha}")
    return out


def poisson_arrivals(count: int, rng: RngStream) -> np.ndarray:
    """First `count` arrival times of a unit-rate Poisson process, strictly
    increasing by construction: the reference law of the arrivals that
    levy_model.build_jump_measure draws as uniforms under one Gamma_{N+1}."""
    if count < 1:
        raise ParameterError(f"count must be a positive integer, got {count}")
    g = rng.generator
    for _ in range(100):
        gaps = _positive_exponential(g, count)
        arrivals = np.cumsum(gaps, out=gaps)
        if np.all(arrivals[1:] > arrivals[:-1]) and arrivals[0] > 0.0:
            return arrivals
    raise RuntimeError("could not produce strictly increasing arrivals")
