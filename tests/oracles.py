"""Reference routes that only the tests use.

Each one checks a production route against an independent construction and
is not part of the package.
"""

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
