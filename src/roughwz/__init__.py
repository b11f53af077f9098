"""Rough-path numerics for smooth stationary approximations of fBm drivers.

Subpackages:
    fbm        grids, exact fractional Brownian sampling, Wiener shift
    lift       level-2 lifts, Chen reconstruction, geometricity diagnostics
    wongzakai  the smooth stationary approximant W_delta and its lift
    norms      the pair-norm variation kernel, Hoelder/variation
               metrics, stopping times
    rde        vector fields, controlled paths, the one-step solver, solution
               distances
    rds        rough-path shifts and cocycle residuals
    expcli     convergence experiments and their command-line front end
"""

from .fbm import (
    CovarianceFactorizationError,
    FbmParams,
    FbmSampler,
    GridAlignmentError,
    SamplePath,
    TimeGrid,
    fbm_covariance,
    path_rng,
    wiener_shift,
)
from .lift import (
    GridRoughPath,
    geometricity_residual,
    lift_left_riemann,
    lift_smooth_quadrature,
)
from .norms import (
    block_variation,
    euclidean_norms,
    frobenius_norms,
    greedy_stopping_times,
    holder_seminorm,
    homogeneous_pvar_norm,
    partition_sums,
    pvar_level2,
    pvar_level2_distance,
    pvar_seminorm,
    rho_alpha_metric,
    rho_pvar_metric,
)
from .rde import (
    ControlledPath,
    SolutionDistance,
    VECTOR_FIELD_CATALOG,
    VectorField,
    builtin_vector_field,
    solution_distance,
    solve_rde,
)
from .expcli import (
    EXPERIMENTS,
    ConfigError,
    ConvergenceReport,
    ExperimentConfig,
    GateResult,
    MetricSummary,
    fit_loglog_slope,
    run_noise_convergence,
    run_solution_convergence,
    run_stopping_time_convergence,
    run_suite,
)
from .rds import cocycle_residual, shift_rough_path
from .wongzakai import g_delta, w_delta, ww_delta

__version__ = "0.1.0"
