"""Simulation and verification toolkit for a harmonizable fractional
stable model observed at unit-time increments.

The package builds truncated atomic realizations of the driving complex
isotropic stable noise, evaluates the increment series, the quadratic
statistic Q_n and its realized limits on the same atoms, and runs the
statistical experiments that check the law-of-large-numbers rate and the
distributional limit of the rescaled error at desk scale.
"""

from .analysis import (
    ExperimentReport,
    envelope_quadrature,
    identity_suite,
    iid_stable_qv_experiment,
    kernel_limit_check,
    ks_two_sample,
    loglog_slope,
    run_clt_experiment,
    run_lln_experiment,
)
from .errors import (
    ConfigError,
    HarmstableError,
    ParameterError,
    QuadratureError,
    SingularityError,
)
from .harmonizable import (
    increments_from_csv,
    increments_to_csv,
    normalized_error,
    quadratic_statistic,
    realized_U,
    rosenblatt_fast,
    simulate_increments,
    t_nodes_for,
    tail_error_estimate,
)
from .kernels import (
    ModelParams,
    gn_bound,
    kernel_gn,
    kernel_h,
    kernel_hn,
    kernel_r,
    nearest_2pi,
    phi_qv,
    psi,
    psi_norm_constant,
)
from .levy_model import (
    JumpMeasure,
    build_jump_measure,
    condition_value,
    double_integrate,
    integrate,
    integrate_qv,
    jump_measure_from_csv,
    jump_measure_to_csv,
    series_unit_scale,
)
from .quadrature import QuadratureSpec, axis_cells, grid_integral_2d, log_integral_1d
from .rng_stable import (
    RngStream,
    poisson_arrivals,
    sample_isotropic_stable,
    sample_sas,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentReport",
    "HarmstableError",
    "JumpMeasure",
    "ModelParams",
    "ParameterError",
    "QuadratureError",
    "QuadratureSpec",
    "RngStream",
    "SingularityError",
    "axis_cells",
    "build_jump_measure",
    "condition_value",
    "double_integrate",
    "envelope_quadrature",
    "gn_bound",
    "grid_integral_2d",
    "identity_suite",
    "iid_stable_qv_experiment",
    "increments_from_csv",
    "increments_to_csv",
    "integrate",
    "integrate_qv",
    "jump_measure_from_csv",
    "jump_measure_to_csv",
    "kernel_gn",
    "kernel_h",
    "kernel_hn",
    "kernel_limit_check",
    "kernel_r",
    "ks_two_sample",
    "log_integral_1d",
    "loglog_slope",
    "nearest_2pi",
    "normalized_error",
    "phi_qv",
    "poisson_arrivals",
    "psi",
    "psi_norm_constant",
    "quadratic_statistic",
    "realized_U",
    "rosenblatt_fast",
    "run_clt_experiment",
    "run_lln_experiment",
    "sample_isotropic_stable",
    "sample_sas",
    "series_unit_scale",
    "simulate_increments",
    "t_nodes_for",
    "tail_error_estimate",
]
