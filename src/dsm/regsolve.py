"""Damped Newton for the regularized equation F(v) + a*v = f_delta.

For monotone F and a > 0 the regularized equation has a unique solution;
Newton with a backtracking line search on the regularized residual finds
it from any reasonable starting point.  :func:`line_search` is the one
globalization in the package: :func:`solve_regularized` and the run drivers
in :mod:`dsm.driver` both take their steps through it.  Regularized
residuals, and the tolerance here, are in the weighted L2 norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import GridFunction, GridMismatchError
from .operators import OperatorModel, SingularShiftError

__all__ = [
    "NewtonOptions",
    "RegularizedSolveReport",
    "SingularShiftError",
    "ConvergenceError",
    "solve_shifted_linear",
    "regularized_residual",
    "start_values",
    "line_search",
    "solve_regularized",
]


class ConvergenceError(RuntimeError):
    """A regularized solve failed to reach the requested tolerance."""


@dataclass(frozen=True)
class NewtonOptions:
    """Solver knobs: absolute residual tolerance in the weighted norm and
    Newton iteration cap."""

    tol: float = 1e-12
    max_iter: int = 100

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class RegularizedSolveReport:
    solution: GridFunction
    residual_norm: float
    iterations: int
    converged: bool


def solve_shifted_linear(
    model: OperatorModel, u: GridFunction, a: float, rhs: GridFunction
) -> GridFunction:
    """Solve the Newton system (F'(u) + a*I) w = rhs for a shift a > 0.

    The one shifted solve of the package: :func:`solve_regularized` and the
    run drivers take every Newton step through it.  It costs O(n) via
    :meth:`OperatorModel.solve_shifted` (the exp kernel's tridiagonal
    inverse, then one refinement step) and raises
    :class:`SingularShiftError` at a zero or non-finite pivot or step.
    """
    if not a > 0:
        raise ValueError(f"shift a must be positive, got {a}")
    return model.solve_shifted(u, a, rhs)


def regularized_residual(grid, fv, v, a, f_values):
    """G(v) = F(v) - f_delta + a*v on raw arrays, with its weighted norm.

    ``fv`` holds F(v).  The norm is inf or nan where G overflows.
    """
    g = fv - f_values + a * v
    return g, float(np.sqrt(np.sum(grid.weights * g * g)))


def _apply(model, values):
    # F(values), or None where the model cannot evaluate them: non-finite
    # values or an overflowing F are rejected by GridFunction
    try:
        return model.apply(GridFunction(model.grid, values)).values
    except ValueError:
        return None


def start_values(model: OperatorModel, f_delta: GridFunction, start: GridFunction | None):
    """Raw values of a Newton start point (default 0), after checking that
    the data and the start point live on the model's grid."""
    for u in (f_delta, start):
        if u is not None and u.grid != model.grid:
            raise GridMismatchError(f"function on {u.grid!r}, model on {model.grid!r}")
    return np.zeros(model.grid.n) if start is None else start.values


_HALVINGS = 40
_DECREASE_SLACK = 1e-4


def line_search(model: OperatorModel, v, step, a: float, f_values, g_norm: float):
    """Backtracking line search on the regularized residual along v - lam*step.

    ``g_norm`` is the weighted norm of G(v) = F(v) - f_delta + a*v.  Tries
    lam = 1, 1/2, ... (``_HALVINGS`` halvings) and accepts the first
    candidate with ||G|| <= (1 - 1e-4*lam) * g_norm (Armijo).  For a Newton
    direction the slope of ||G(v - lam*step)|| at lam = 0 is -g_norm, so a
    small enough lam always passes unless rounding intervenes.

    Returns ``(iterate, F(iterate), ||G(iterate)||, accepted)``.  When no
    candidate passes, the iterate is the finite candidate with the smallest
    residual, or v itself if the model could evaluate none of them.
    """
    lam = 1.0
    best, best_norm = None, math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_HALVINGS + 1):
            candidate = v - lam * step
            fc = _apply(model, candidate)
            if fc is not None:
                _, cand_norm = regularized_residual(model.grid, fc, candidate, a, f_values)
                if cand_norm <= (1.0 - _DECREASE_SLACK * lam) * g_norm:
                    return candidate, fc, cand_norm, True
                if cand_norm < best_norm:
                    best, best_norm = (candidate, fc, cand_norm, False), cand_norm
            lam *= 0.5
    if best is None:
        return v, _apply(model, v), g_norm, False
    return best


def solve_regularized(
    model: OperatorModel,
    f_delta: GridFunction,
    a: float,
    options: NewtonOptions | None = None,
    start: GridFunction | None = None,
) -> RegularizedSolveReport:
    """Solve F(v) + a*v = f_delta by damped Newton from v = start (default 0).

    Each step solves (F'(v) + a*I) s = G(v) = F(v) + a*v - f_delta and
    backtracks along v - lam*s with :func:`line_search`.  When no step length
    passes its Armijo test, or the iteration cap is hit, the current iterate
    is returned with ``converged=False`` unless it already meets ``tol``.
    """
    if not a > 0:
        raise ValueError(f"regularization parameter a must be positive, got {a}")
    opts = options or NewtonOptions()
    grid = model.grid
    v = start_values(model, f_delta, start)
    f_values = f_delta.values
    with np.errstate(over="ignore", invalid="ignore"):
        fv = _apply(model, v)
    if fv is None:
        raise ValueError("cannot evaluate the model at the start point")
    residual, res_norm = regularized_residual(grid, fv, v, a, f_values)
    iterations = 0
    while res_norm > opts.tol and iterations < opts.max_iter:
        step = solve_shifted_linear(
            model, GridFunction(grid, v), a, GridFunction(grid, residual)
        ).values
        iterations += 1
        candidate, fc, _, accepted = line_search(model, v, step, a, f_values, res_norm)
        if not accepted:
            break
        v = candidate
        residual, res_norm = regularized_residual(grid, fc, v, a, f_values)
    return RegularizedSolveReport(
        GridFunction(grid, v), res_norm, iterations, res_norm <= opts.tol
    )
