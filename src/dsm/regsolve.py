"""Damped Newton for the regularized equation F(v) + a*v = f_delta.

For monotone F and a > 0 the regularized equation has a unique solution;
Newton with a backtracking line search on the regularized residual finds
it from any reasonable starting point.  :func:`line_search` is the one
globalization in the package: :func:`solve_regularized` and the run drivers
in :mod:`dsm.driver` both take their steps through it.  Regularized
residuals, and the tolerance here, are in the weighted L2 norm.

The Newton loops work on raw node arrays: they call the model's unchecked
kernels :meth:`~dsm.operators.OperatorModel.apply_values` and
:meth:`~dsm.operators.OperatorModel.solve_shifted_values` and wrap a
:class:`~dsm.hilbert.GridFunction` only for the returned solution.
:func:`line_search` and :func:`regularized_residual` work row by row on a
stack of rows ``(S, n)``, so the drivers advance a whole batch of runs with
one call each; :func:`solve_regularized` is their one-row case.
A trial point where F or the residual is not finite has a non-finite norm,
which fails every comparison of the line search.
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

    The checked form of :meth:`OperatorModel.solve_shifted_values`, the O(n)
    step (one solve through the exp kernel's tridiagonal inverse, plus one
    refinement step on grids of more than 1000 points) that
    :func:`solve_regularized` and the run drivers take on raw arrays.
    Raises :class:`SingularShiftError` at a zero or non-finite pivot or step.
    """
    if not 0 < a < math.inf:
        raise ValueError(f"shift a must be positive and finite, got {a}")
    return model.solve_shifted(u, a, rhs)


def regularized_residual(grid, fv, v, a, f_values):
    """G(v) = F(v) - f_delta + a*v on raw arrays, with its weighted norm.

    ``fv`` holds F(v).  Arrays are one row or a stack of rows ``(S, n)``,
    with a scalar ``a`` or a column ``(S, 1)`` of per-row shifts; the norm
    is taken along the last axis, one per row.  It is inf or nan where G
    overflows.
    """
    g = fv - f_values
    g += a * v
    return g, np.sqrt(np.vecdot(g, grid.weights * g))


def start_values(model: OperatorModel, f_delta: GridFunction, start: GridFunction | None):
    """Raw values of a Newton start point (default 0), after checking that
    the data and the start point live on the model's grid."""
    for u in (f_delta, start):
        if u is not None and u.grid != model.grid:
            raise GridMismatchError(f"function on {u.grid!r}, model on {model.grid!r}")
    return np.zeros(model.grid.n) if start is None else start.values


_HALVINGS = 40
_DECREASE_SLACK = 1e-4


def line_search(model: OperatorModel, v, fv, step, a, f_values, g_norm, lam0=None):
    """Backtracking line search on the regularized residual along v - 2^-k*step,
    row by row.

    ``v``, ``fv`` = F(v), ``step`` and ``f_values`` are stacks of rows
    ``(S, n)``, ``a`` a column ``(S, 1)`` of per-row shifts and
    ``g_norm`` the weighted norm of each row's G(v) = F(v) - f_delta + a*v.
    ``lam0`` (default all ones) holds each row's first step length: ``step``
    comes already scaled by it, so trial k of a row, v - 2^-k*step, is at
    lam = lam0*2^-k along the Newton direction.  Each row tries k = 0, 1, ...
    (``_HALVINGS`` halvings) and accepts its first candidate with
    ||G|| <= (1 - 1e-4*lam) * g_norm (Armijo).  For a Newton direction the
    slope of ||G(v - lam*s)|| at lam = 0 is -g_norm, so a small enough lam
    always passes unless rounding intervenes.  The first trial evaluates
    every row at once; each halving evaluates only the rows that have not
    yet passed.

    Returns ``(iterate, F(iterate), G(iterate), ||G(iterate)||, accepted,
    lam)``, one entry per row.  A row where no candidate passes takes the
    candidate with the smallest finite residual norm, and that candidate's
    lam, or stays at v, with the F it came in with and its lam0, if no
    candidate has one.  Trial points may overflow: call it under
    ``np.errstate(over="ignore", invalid="ignore")``, as the Newton loops do.
    """
    grid = model.grid
    lam0 = np.ones(len(v)) if lam0 is None else lam0
    new = v - step
    f_new = model.apply_values(new)
    g_new, norm = regularized_residual(grid, f_new, new, a, f_values)
    accepted = norm <= (1.0 - _DECREASE_SLACK * lam0) * g_norm
    if np.count_nonzero(accepted) == len(accepted):
        return new, f_new, g_new, norm, accepted, lam0
    # The rows still searching, stacked, with the residual norm of each of
    # their trials (trial k at 2^-k*step); a row that passes leaves the stack.
    lam_out = lam0.copy()
    pending = np.flatnonzero(~accepted)
    vp, sp, ap, fp, gp, lp = v, step, a, f_values, g_norm, lam0
    if len(pending) < len(v):
        vp, sp, ap, fp, gp, lp = (x[pending] for x in (v, step, a, f_values, g_norm, lam0))
    trial_norms = np.empty((len(pending), _HALVINGS + 1))
    trial_norms[:, 0] = norm[pending]
    scale = 1.0
    for k in range(1, _HALVINGS + 1):
        scale *= 0.5
        candidate = vp - scale * sp
        fc = model.apply_values(candidate)
        gc, cand_norm = regularized_residual(grid, fc, candidate, ap, fp)
        trial_norms[:, k] = cand_norm
        lam = lp * scale
        passed = cand_norm <= (1.0 - _DECREASE_SLACK * lam) * gp
        n_passed = np.count_nonzero(passed)
        if n_passed == len(v):
            # every row searched to this step length and passed here
            return candidate, fc, gc, cand_norm, passed, lam
        if n_passed:
            rows = pending[passed]
            new[rows], f_new[rows], g_new[rows] = candidate[passed], fc[passed], gc[passed]
            norm[rows], lam_out[rows] = cand_norm[passed], lam[passed]
            accepted[rows] = True
            keep = ~passed
            if not np.count_nonzero(keep):
                return new, f_new, g_new, norm, accepted, lam_out
            pending, vp, sp, ap, fp, gp, lp, trial_norms = (
                x[keep] for x in (pending, vp, sp, ap, fp, gp, lp, trial_norms)
            )
    # No step length passed: take the trial with the smallest finite norm
    # (the first of equals) again, or stay at v where no trial is finite.
    trial_norms[~(trial_norms < math.inf)] = math.inf
    k_best = np.argmin(trial_norms, axis=1)
    best_norm = trial_norms[np.arange(len(pending)), k_best]
    found = best_norm < math.inf
    stay = pending[~found]
    new[stay], f_new[stay], norm[stay] = v[stay], fv[stay], g_norm[stay]
    rows = pending[found]
    scale = np.ldexp(1.0, -k_best[found])
    new[rows] = vp[found] - scale[:, None] * sp[found]
    f_new[rows] = model.apply_values(new[rows])
    norm[rows], lam_out[rows] = best_norm[found], lp[found] * scale
    g_new[pending] = regularized_residual(grid, f_new[pending], new[pending], ap, fp)[0]
    return new, f_new, g_new, norm, accepted, lam_out


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
    if not 0 < a < math.inf:
        raise ValueError(f"regularization parameter a must be positive and finite, got {a}")
    opts = options or NewtonOptions()
    grid = model.grid
    # one row of the row-wise Newton kernels, with its shift as a column
    v = start_values(model, f_delta, start)[None, :]
    f_values = f_delta.values[None, :]
    a = np.full((1, 1), float(a))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fv = model.apply_values(v)
        if not np.isfinite(fv).all():
            raise ValueError("cannot evaluate the model at the start point")
        residual, res_norm = regularized_residual(grid, fv, v, a, f_values)
        iterations = 0
        while res_norm[0] > opts.tol and iterations < opts.max_iter:
            step = model.solve_shifted_values(v, a, residual)
            iterations += 1
            new, f_new, g_new, new_norm, accepted, _ = line_search(
                model, v, fv, step, a, f_values, res_norm
            )
            if not accepted[0]:
                break
            v, fv, residual, res_norm = new, f_new, g_new, new_norm
    res_norm = float(res_norm[0])
    return RegularizedSolveReport(
        GridFunction(grid, v[0]), res_norm, iterations, res_norm <= opts.tol
    )
