"""Iteratively regularized Newton solver for monotone integral equations.

The package solves F(u) = f from noisy data f_delta with a decaying
regularization schedule and an a-posteriori discrepancy stop, and ships
the operator models, drivers, experiment presets, and analytic checks
used to exercise it.
"""

from .checks import (
    CheckReport,
    Trajectory,
    build_trajectory,
    check_exponential_integral_bound,
    check_gronwall_majorant,
    check_large_a_limit,
    check_monotonicity,
    check_perturbation_bounds,
    check_weighted_integral_bound,
    find_crossing_time,
    format_reports,
    gronwall_recipe,
    run_lemma_suite,
)
from .driver import (
    ContinuousSchedule,
    DiscreteSchedule,
    RunRecord,
    StoppingRule,
    run_batch,
    run_euler,
    run_iteration,
)
from .harness import (
    EXACT_KINDS,
    NOISE_KINDS,
    PRESETS,
    ExperimentConfig,
    ResultRow,
    calibrate_noise,
    emit_csv,
    exact_solution,
    format_table,
    gaussian_noise,
    make_noise,
    run_cells,
    run_experiment,
    run_solution_dump,
    sine_noise,
)
from .hilbert import GridFunction, GridMismatchError, QuadratureGrid, inner, norm, rel_error
from .operators import MODEL_KINDS, OperatorModel, matvec
from .regsolve import (
    ConvergenceError,
    NewtonOptions,
    RegularizedSolveReport,
    SingularShiftError,
    solve_regularized,
    solve_shifted_linear,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ContinuousSchedule",
    "ConvergenceError",
    "DiscreteSchedule",
    "EXACT_KINDS",
    "ExperimentConfig",
    "GridFunction",
    "GridMismatchError",
    "MODEL_KINDS",
    "NOISE_KINDS",
    "NewtonOptions",
    "OperatorModel",
    "PRESETS",
    "QuadratureGrid",
    "RegularizedSolveReport",
    "ResultRow",
    "RunRecord",
    "StoppingRule",
    "Trajectory",
    "build_trajectory",
    "calibrate_noise",
    "check_exponential_integral_bound",
    "check_gronwall_majorant",
    "check_large_a_limit",
    "check_monotonicity",
    "check_perturbation_bounds",
    "check_weighted_integral_bound",
    "emit_csv",
    "exact_solution",
    "find_crossing_time",
    "format_reports",
    "format_table",
    "gaussian_noise",
    "gronwall_recipe",
    "inner",
    "make_noise",
    "matvec",
    "norm",
    "rel_error",
    "run_batch",
    "run_cells",
    "run_euler",
    "run_experiment",
    "run_iteration",
    "run_lemma_suite",
    "run_solution_dump",
    "sine_noise",
    "solve_regularized",
    "solve_shifted_linear",
    "__version__",
]
