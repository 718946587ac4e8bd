"""Damped Newton for the regularized equation F(v) + a*v = f_delta, and
the package's one damped-Newton loop.

For monotone F and a > 0 the regularized equation has a unique solution;
Newton with a backtracking line search on the regularized residual, in
the weighted L2 norm, finds it from any reasonable starting point.

``_newton_rows`` is that loop.  It advances a stack of rows ``(S, n)`` of
raw node values with one call each of the model's kernels and of
:func:`line_search` per step, and drops each row, with what it gets alone,
at its caller's stop: ``_regularized_rows`` (a fixed shift per row, stop at
the residual tolerance ``_TOL`` or after ``_MAX_ITER`` iterations), behind
:func:`solve_regularized` and the paths of :mod:`dsm.checks`, and the run
drivers in :mod:`dsm.driver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import GridFunction, norms
from .operators import OperatorModel, SingularShiftError

__all__ = [
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
    """A regularized solve failed to reach its tolerance."""


# The regularized solve's absolute residual tolerance, in the weighted norm,
# and its Newton iteration cap.
_TOL = 1e-12
_MAX_ITER = 100


@dataclass
class RegularizedSolveReport:
    solution: GridFunction
    residual_norm: float
    iterations: int
    converged: bool


def solve_shifted_linear(
    model: OperatorModel, u: GridFunction, a: float, rhs: GridFunction
) -> GridFunction:
    """Solve (F'(u) + a*I) w = rhs in O(n) for a shift a > 0: the checked form
    of :meth:`OperatorModel.solve_shifted_values`, with a grid check and a
    :class:`~dsm.hilbert.GridFunction` result; raises :class:`SingularShiftError`
    at a non-finite entry of the system, a non-positive pivot, or a
    non-finite step."""
    if not 0 < a < math.inf:
        raise ValueError(f"shift a must be positive and finite, got {a}")
    model._check(u, rhs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        step = model.solve_shifted_values(u.values, a, rhs.values)
    return GridFunction(model.grid, step)


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
    model._check(f_delta, start)
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
    ``np.errstate(over="ignore", invalid="ignore")``, as the Newton loop does.
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


def _newton_rows(model: OperatorModel, u, f_values, shifts, first_step, stop):
    """Step each row of ``u`` ``(S, n)`` still in the stack to u - lam*s,
    (F'(u) + a*I) s = F(u) + a*u - f with f its row of ``f_values``, until
    ``stop`` has let every row leave.  ``shifts`` is a column ``(S, 1)`` of
    fixed shifts, or ``shifts(k, rows)`` gives step k's.  ``first_step(lam,
    s)`` scales each Newton step s in place by its row's first step length,
    from its last one lam, and returns the search's lam0; None takes full
    steps.  ``stop(k, rows, u, F(u), f_values, ||G(u)||, accepted, lam,
    u_prev, ||G(u_prev)||)`` sees iterate k (0 at the start), the search
    that made it and the iterate before, and returns which rows leave.
    """
    grid = model.grid
    rows = np.arange(len(u))
    lam, accepted = np.ones(len(u)), np.ones(len(u), dtype=bool)
    # trial points may overflow; the line search rejects them by their norm
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # F is evaluated here once, checked; afterwards every iterate's F
        # comes back from the line search trial that produced it
        fu = model.apply_values(u)
        if not np.isfinite(fu).all():
            raise ValueError("cannot evaluate the model at the start point")
        a = shifts(0, rows) if callable(shifts) else shifts
        g, g_norm = regularized_residual(grid, fu, u, a, f_values)
        u_prev, norm_prev, k = u, g_norm, 0
        while True:
            leave = stop(k, rows, u, fu, f_values, g_norm, accepted, lam, u_prev, norm_prev)
            n_leave = np.count_nonzero(leave)
            if n_leave == len(rows):
                return
            if n_leave:
                keep = ~leave
                rows, u, fu, f_values, a, g, g_norm, lam = (
                    x[keep] for x in (rows, u, fu, f_values, a, g, g_norm, lam)
                )
            try:
                step = model.solve_shifted_values(u, a, g)
            except SingularShiftError as err:
                raise SingularShiftError(err.pivot_index, rows[err.row]) from err
            # G goes before the line search makes its successor: the search
            # holds about a dozen (S, n) arrays at its peak
            del g
            lam0 = None if first_step is None else first_step(lam, step)
            u_prev, norm_prev = u, g_norm
            u, fu, g, g_norm, accepted, lam = line_search(
                model, u, fu, step, a, f_values, g_norm, lam0
            )
            k += 1
            if callable(shifts):
                a = shifts(k, rows)
                g, g_norm = regularized_residual(grid, fu, u, a, f_values)


def _regularized_rows(model: OperatorModel, f_values, a, starts):
    # Solve F(v) + a*v = f by damped Newton for a stack of rows on raw arrays,
    # all rows taking full steps in one stack: the rows ``starts`` (S, n), a
    # C-ordered array it overwrites with the solutions, the data ``f_values``,
    # one row (n,) for every shift or a C-ordered stack (S, n) of one row per
    # shift, and a column ``a`` (S, 1) of shifts.  A row leaves when it meets
    # ``_TOL``, at ``_MAX_ITER`` iterations, and, with the iterate it had
    # before, when no step length passes its Armijo test; it gets bit for bit
    # what it gets alone.  Returns (solutions, F(solutions), residual_norms, iterations,
    # converged).  A row's F comes from the line search trial that made its
    # iterate; only a row that leaves at a failed search, with the iterate
    # before it, is evaluated again.
    valid = (a > 0) & (a < math.inf)
    if not valid.all():
        raise ValueError(f"shift a must be positive and finite, got {a[~valid][0]}")
    if f_values.ndim == 1:
        f_values = np.tile(f_values, (len(a), 1))
    solutions, f_solutions = starts, np.empty_like(starts)
    residual_norms, iterations = np.empty(len(a)), np.zeros(len(a), dtype=int)

    def stop(k, rows, v, fv, f_values, g_norm, accepted, lam, v_prev, norm_prev):
        leave = ~accepted | ~(g_norm > _TOL) | (k == _MAX_ITER)
        if np.count_nonzero(leave):
            done, kept = rows[leave], accepted[leave]
            solutions[done] = np.where(kept[:, None], v[leave], v_prev[leave])
            f_solutions[done] = fv[leave]
            if not kept.all():
                failed = done[~kept]
                f_solutions[failed] = model.apply_values(solutions[failed])
            residual_norms[done] = np.where(kept, g_norm[leave], norm_prev[leave])
            iterations[done] = k
        return leave

    _newton_rows(model, solutions, f_values, a, None, stop)
    return solutions, f_solutions, residual_norms, iterations, residual_norms <= _TOL


def solve_regularized(
    model: OperatorModel, f_delta: GridFunction, a: float
) -> RegularizedSolveReport:
    """Solve F(v) + a*v = f_delta by damped Newton from v = 0, to the absolute
    residual tolerance 1e-12 in the weighted norm within 100 iterations.

    When no step length passes its Armijo test, the iterate before that
    search is returned; at the iteration cap, the current one.  Either way
    ``converged`` is False unless it already meets the tolerance.
    """
    # the start 0 as one C-ordered row, which the solve overwrites
    row = start_values(model, f_delta, None)[None, :]
    a = np.array([[a]], dtype=float)
    v, _, norm, iterations, converged = (
        x[0] for x in _regularized_rows(model, f_delta.values, a, row)
    )
    return RegularizedSolveReport(
        GridFunction(model.grid, v), float(norm), int(iterations), bool(converged)
    )
