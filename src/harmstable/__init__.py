"""Simulation and verification toolkit for a harmonizable fractional
stable model observed at unit-time increments.

The package builds truncated atomic realizations of the driving complex
isotropic stable noise, evaluates the increment series, the quadratic
statistic Q_n and its realized limits on the same atoms, and runs the
statistical experiments that check the law-of-large-numbers rate and the
distributional limit of the rescaled error at desk scale.
"""

from . import analysis, errors, harmonizable, kernels, levy_model, quadrature, rng_stable
from .analysis import *
from .errors import *
from .harmonizable import *
from .kernels import *
from .levy_model import *
from .quadrature import *
from .rng_stable import *

__version__ = "0.1.0"

# the union of the library submodules' export lists; cli is the front end
__all__ = [
    name
    for module in (analysis, errors, harmonizable, kernels, levy_model, quadrature, rng_stable)
    for name in module.__all__
]
