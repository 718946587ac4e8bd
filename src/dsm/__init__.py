"""Iteratively regularized Newton solver for monotone integral equations.

The package solves F(u) = f from noisy data f_delta with a decaying
regularization schedule and an a-posteriori discrepancy stop, and ships
the operator models, drivers and experiment presets used to exercise it.
The analytic checks of the lemmas behind that stop are imported from
:mod:`dsm.checks`; importing ``dsm`` does not load them.
"""

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
    RegularizedSolveReport,
    SingularShiftError,
    solve_regularized,
    solve_shifted_linear,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuousSchedule",
    "ConvergenceError",
    "DiscreteSchedule",
    "EXACT_KINDS",
    "ExperimentConfig",
    "GridFunction",
    "GridMismatchError",
    "MODEL_KINDS",
    "NOISE_KINDS",
    "OperatorModel",
    "PRESETS",
    "QuadratureGrid",
    "RegularizedSolveReport",
    "ResultRow",
    "RunRecord",
    "StoppingRule",
    "calibrate_noise",
    "emit_csv",
    "exact_solution",
    "format_table",
    "gaussian_noise",
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
    "run_solution_dump",
    "sine_noise",
    "solve_regularized",
    "solve_shifted_linear",
    "__version__",
]
