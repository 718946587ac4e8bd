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
one call each.  :func:`solve_regularized_rows` is the one damped-Newton
loop for the regularized equation: it solves a stack of rows, one shift
each, and each row leaves the stack at its own stop, with what it gets
alone.  :func:`solve_regularized` is its one-row case.
A trial point where F or the residual is not finite has a non-finite norm,
which fails every comparison of the line search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import GridFunction, GridMismatchError, norms
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
    "solve_regularized_rows",
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
        if not (self.max_iter >= 1 and float(self.max_iter).is_integer()):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")


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
    """G(v) = F(v) - f_delta + a*v on raw arrays, with its weighted norm
    (:func:`~dsm.hilbert.norms`).

    ``fv`` holds F(v).  Arrays are one row or a stack of rows ``(S, n)``,
    with a scalar ``a`` or a column ``(S, 1)`` of per-row shifts; the norm
    is taken along the last axis, one per row.  It is inf or nan where G
    overflows.
    """
    g = fv - f_values
    g += a * v
    return g, norms(grid, g)


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


def solve_regularized_rows(
    model: OperatorModel,
    f_delta: GridFunction,
    a_values,
    options: NewtonOptions | None = None,
    start: GridFunction | None = None,
):
    """Solve F(v) + a*v = f_delta for every shift a of ``a_values`` by damped
    Newton, one row per shift, each from v = start (default 0).

    Each step solves (F'(v) + a*I) s = G(v) = F(v) + a*v - f_delta and
    backtracks along v - lam*s with :func:`line_search`, for all rows still
    in the stack at once.  A row leaves the stack when it meets ``tol``, and
    also, with its current iterate, when no step length passes its Armijo
    test; rows still in the stack at the iteration cap stop there.  Every
    row gets bit for bit what it gets alone.

    Returns ``(solutions, residual_norms, iterations, converged)``: the rows
    ``(S, n)``, each row's weighted residual norm, its Newton iteration count
    and whether that norm meets ``tol``.
    """
    a = np.array(a_values, dtype=float).reshape(-1, 1)
    valid = (a > 0) & (a < math.inf)
    if not valid.all():
        raise ValueError(
            f"regularization parameter a must be positive and finite, got {a[~valid][0]}"
        )
    opts = options or NewtonOptions()
    grid = model.grid
    # C-ordered copies: on a broadcast view numpy would lay new rows out in
    # another order, and sum the norms of those rows in another order too.
    # A row is written to the output only once it has left the stack, so the
    # output can reuse the start rows.
    solutions = v = np.tile(start_values(model, f_delta, start), (len(a), 1))
    f_values = np.tile(f_delta.values, (len(a), 1))
    residual_norms = np.empty(len(a))
    iterations = np.zeros(len(a), dtype=int)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fv = model.apply_values(v)
        if not np.isfinite(fv).all():
            raise ValueError("cannot evaluate the model at the start point")
        residual, res_norm = regularized_residual(grid, fv, v, a, f_values)
        # the rows still in the stack, and the output row of each
        rows = np.arange(len(a))
        stay = res_norm > opts.tol
        for k in range(1, int(opts.max_iter) + 1):
            n_stay = np.count_nonzero(stay)
            if not n_stay:
                break
            if n_stay < len(rows):
                leave = ~stay
                solutions[rows[leave]], residual_norms[rows[leave]] = v[leave], res_norm[leave]
                rows, v, fv, residual, res_norm, a, f_values = (
                    x[stay] for x in (rows, v, fv, residual, res_norm, a, f_values)
                )
            step = model.solve_shifted_values(v, a, residual)
            iterations[rows] = k
            # G(v) goes before the line search makes its successor: the
            # search holds about a dozen (S, n) arrays at its peak
            del residual
            new, fv, residual, new_norm, accepted, _ = line_search(
                model, v, fv, step, a, f_values, res_norm
            )
            # a row whose search failed keeps its iterate and leaves
            stay = accepted & (new_norm > opts.tol)
            if np.count_nonzero(accepted) < len(rows):
                new[~accepted], new_norm[~accepted] = v[~accepted], res_norm[~accepted]
            v, res_norm = new, new_norm
        solutions[rows], residual_norms[rows] = v, res_norm
    return solutions, residual_norms, iterations, residual_norms <= opts.tol


def solve_regularized(
    model: OperatorModel,
    f_delta: GridFunction,
    a: float,
    options: NewtonOptions | None = None,
    start: GridFunction | None = None,
) -> RegularizedSolveReport:
    """Solve F(v) + a*v = f_delta by damped Newton from v = start (default 0):
    the one-row case of :func:`solve_regularized_rows`.

    When no step length passes its Armijo test, or the iteration cap is hit,
    the current iterate is returned with ``converged=False`` unless it
    already meets ``tol``.
    """
    solutions, norms, iterations, converged = solve_regularized_rows(
        model, f_delta, [a], options, start
    )
    return RegularizedSolveReport(
        GridFunction(model.grid, solutions[0]),
        float(norms[0]),
        int(iterations[0]),
        bool(converged[0]),
    )
