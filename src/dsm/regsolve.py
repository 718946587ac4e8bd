"""Damped Newton for the regularized equation F(v) + a*v = f_delta, and
the package's one damped-Newton loop.

For monotone F and a > 0 the regularized equation has a unique solution;
Newton with a backtracking line search on the regularized residual, in
the weighted L2 norm, finds it from any reasonable starting point.

``_newton_rows`` is that loop.  It advances a stack of rows ``(S, n)`` of
raw node values with one shifted solve and one call of :func:`line_search`
per step, and drops each row, with what it gets alone, at its caller's
stop.  Each caller hands it its shifts in one form, ``shifts(k, rows)``,
iterate k's column for the batch rows still in the stack:
``_regularized_rows`` (a fixed shift per row, stop at the residual
tolerance ``_TOL`` or after ``_MAX_ITER`` iterations), behind
:func:`solve_regularized` and the paths of :mod:`dsm.checks`, and the run
drivers in :mod:`dsm.driver` (a schedule a(t) at t = k*h).  Both stops
share one rule for a failed search: a row whose line search accepts no
step length stays at the iterate it had and leaves the loop there.

The loop carries each row's data residual r = F(u) - f_delta, not F(u):
f_delta is subtracted once, where F is evaluated.  The Newton right-hand
side is G = a*u + r and a run's discrepancy is ||r||, so no caller forms
F - f_delta again.  G and ||G|| are formed in one place, from r and the
iterate's shift, once per iterate.

Which residuals are exact: F(u) = L u + g(u) runs through the kernel's
running sums at the start and wherever a row is about to leave.  Between
those, each iterate's r, and so its G and ||G||, are carried: the line
search takes a trial's F as L v - lam*L s + g(v - lam*s), with L s = G - D s
read off the Newton equation, so they differ from the exact values by the
rounding of the shifted solves.  A caller's stop decides on exact values
only.
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


def regularized_residual(grid, r, v, a):
    """G(v) = a*v + r on raw arrays, with its weighted norm
    (:func:`~dsm.hilbert.norms`), from the data residual r = F(v) - f_delta.

    Arrays are one row or a stack of rows ``(S, n)``, with a scalar ``a`` or
    a column ``(S, 1)`` of per-row shifts; the norm is taken along the last
    axis, one per row.  It is inf or nan where G overflows.
    """
    g = a * v
    g += r
    return g, norms(grid, g)


_HALVINGS = 40
_DECREASE_SLACK = 1e-4


def line_search(model: OperatorModel, v, rv, lv, step, lstep, a, f_values, g_norm, lam0=None):
    """Backtracking line search on the regularized residual along v - 2^-k*step,
    row by row.

    ``v``, ``rv`` = F(v) - f_delta, ``lv`` = L v, ``step``, ``lstep`` = L step
    and ``f_values`` (f_delta) are stacks of rows ``(S, n)``, with L the
    linear part of F(u) = L u + g(u) (the kernel E W, or I for the identity
    model); ``a`` is a column ``(S, 1)`` of per-row shifts and ``g_norm`` the
    weighted norm of each row's G(v) = a*v + rv.  ``lam0`` (default all ones)
    holds each row's first step length: ``step`` and ``lstep`` come already
    scaled by it, so trial k of a row, v - 2^-k*step, is at lam = lam0*2^-k
    along the Newton direction.  A trial's F is not evaluated through the
    kernel: it is L v - 2^-k*L step + g(v - 2^-k*step), so F is carried,
    exact up to the rounding of the carried L v and of L step; the trial
    subtracts f_delta from it once, for its data residual r.  Each row tries
    k = 0, 1, ... (``_HALVINGS`` halvings) and accepts its first candidate with
    ||G|| <= (1 - 1e-4*lam) * g_norm (Armijo).  For a Newton direction the
    slope of ||G(v - lam*s)|| at lam = 0 is -g_norm, so a small enough lam
    always passes unless rounding intervenes.  The first trial evaluates
    every row at once; each halving evaluates only the rows that have not
    yet passed.

    Returns ``(iterate, r(iterate), L iterate, accepted, lam)``, one entry
    per row, r and L carried from the trial that made the iterate; the
    caller forms G and ||G|| at the iterate with its next shift.  A row
    where no step length passes stays at v, bit for bit, with the r and L v
    it came in with and its lam0; both Newton-loop callers end such a row at
    their stop.  No search runs the kernel's running sums.  Trial points may
    overflow: call it under ``np.errstate(over="ignore", invalid="ignore")``,
    as the Newton loop does.
    """
    grid = model.grid
    lam0 = np.ones(len(v)) if lam0 is None else lam0
    new = v - step
    lv_new = lv - lstep
    r_new = model._with_g(new, lv_new) - f_values
    norm = regularized_residual(grid, r_new, new, a)[1]
    accepted = norm <= (1.0 - _DECREASE_SLACK * lam0) * g_norm
    if np.count_nonzero(accepted) == len(accepted):
        return new, r_new, lv_new, accepted, lam0
    # The rows still searching, stacked; a row that passes leaves the stack.
    lam_out = lam0.copy()
    pending = np.flatnonzero(~accepted)
    stack = (v, lv, step, lstep, a, f_values, g_norm, lam0)
    if len(pending) < len(v):
        stack = tuple(x[pending] for x in stack)
    vp, lvp, sp, lsp, ap, fp, gp, lp = stack
    scale = 1.0
    for k in range(1, _HALVINGS + 1):
        scale *= 0.5
        candidate = vp - scale * sp
        lc = lvp - scale * lsp
        rc = model._with_g(candidate, lc) - fp
        cand_norm = regularized_residual(grid, rc, candidate, ap)[1]
        lam = lp * scale
        passed = cand_norm <= (1.0 - _DECREASE_SLACK * lam) * gp
        n_passed = np.count_nonzero(passed)
        if n_passed == len(v):
            # every row searched to this step length and passed here
            return candidate, rc, lc, passed, lam
        if n_passed:
            rows = pending[passed]
            new[rows], r_new[rows], lv_new[rows] = candidate[passed], rc[passed], lc[passed]
            lam_out[rows] = lam[passed]
            accepted[rows] = True
            keep = ~passed
            if not np.count_nonzero(keep):
                return new, r_new, lv_new, accepted, lam_out
            pending, vp, lvp, sp, lsp, ap, fp, gp, lp = (
                x[keep] for x in (pending, vp, lvp, sp, lsp, ap, fp, gp, lp)
            )
    # No step length passed: these rows stay at v, with the r and L v they
    # came in with and their lam0.
    new[pending], r_new[pending], lv_new[pending] = vp, rv[pending], lvp
    return new, r_new, lv_new, accepted, lam_out


def _newton_rows(model: OperatorModel, u, f_values, shifts, first_step, stop):
    """Step each row of ``u`` ``(S, n)`` still in the stack to u - lam*s,
    (F'(u) + a*I) s = r + a*u with r = F(u) - f the row's data residual and f
    its row of ``f_values``, until ``stop`` has let every row leave.  The loop
    carries r, not F: it subtracts f once, where F is evaluated, and every
    reader takes r.  ``shifts(k, rows)`` gives iterate k's column ``(S, 1)``
    of shifts for ``rows``, the batch rows still in the stack; the loop calls
    it once per iterate, before the stop, and forms G(u) = a*u + r and
    ||G(u)|| from it in that one place.  ``first_step(lam, s, L s)`` scales
    each Newton step s and its image L s in place by its row's first step
    length, from its last one lam, and returns the search's lam0; None takes
    full steps.  ``stop(k, rows, u, r, ||G(u)||, accepted, lam, exact)`` sees
    iterate k (0 at the start) and the search that made it, and returns
    which rows leave.  A row whose search accepted no step length is still
    at iterate k - 1, and both callers' stops end it there.

    F is evaluated through the kernel's running sums once, at the start.
    After that each iterate's r and L u are carried: they come from the line
    search trial that made the iterate (see :func:`line_search`), with
    L s = G - D s from the Newton equation, D = g'(u) + a.  That L s is off
    by the shifted solve's residual, which each step adds to the carried r
    times its step length, so the carried values drift from the exact ones:
    by up to 1.7e-9 of the discrepancy over exp1's 55 steps on 1000 points.
    So a row leaves only on an exactly evaluated F (residual replacement, as
    in Krylov solvers: van der Vorst & Ye, SIAM J. Sci. Comput. 22, 2000).
    ``stop`` calls ``exact(rows)`` on the rows whose carried value meets its
    test, or that leave anyway; that evaluates their F and L u exactly,
    replaces r, G(u) and ||G(u)|| in place, and the stop decides on the
    exact values.  A row whose exact value does not pass continues from it.
    Iterate 0's values are exact already.
    """
    grid = model.grid
    rows = np.arange(len(u))
    lam, accepted = np.ones(len(u)), np.ones(len(u), dtype=bool)

    def exact(which):
        if k and np.count_nonzero(which):
            i = np.flatnonzero(which)
            fu, lu[i] = model._split_values(u[i])
            r[i] = fu - f_values[i]
            g[i], g_norm[i] = regularized_residual(grid, r[i], u[i], a[i])

    # trial points may overflow; the line search rejects them by their norm
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fu, lu = model._split_values(u)
        if not np.isfinite(fu).all():
            raise ValueError("cannot evaluate the model at the start point")
        r = fu - f_values
        del fu
        k = 0
        while True:
            a = shifts(k, rows)
            g, g_norm = regularized_residual(grid, r, u, a)
            leave = stop(k, rows, u, r, g_norm, accepted, lam, exact)
            n_leave = np.count_nonzero(leave)
            if n_leave == len(rows):
                return
            if n_leave:
                keep = ~leave
                rows, u, r, lu, f_values, a, g, g_norm, lam = (
                    x[keep] for x in (rows, u, r, lu, f_values, a, g, g_norm, lam)
                )
            try:
                step, lstep = model._newton_step(u, a, g)
            except SingularShiftError as err:
                raise SingularShiftError(err.pivot_index, rows[err.row]) from err
            # G goes before the line search: the search holds about a dozen
            # (S, n) arrays at its peak
            del g
            lam0 = None if first_step is None else first_step(lam, step, lstep)
            u, r, lu, accepted, lam = line_search(
                model, u, r, lu, step, lstep, a, f_values, g_norm, lam0
            )
            # as G above: the step and its image go before the next solve
            del step, lstep
            k += 1


def _regularized_rows(model: OperatorModel, f_values, a, starts):
    # Solve F(v) + a*v = f by damped Newton for a stack of rows on raw arrays,
    # all rows taking full steps in one stack: the rows ``starts`` (S, n), a
    # C-ordered array it overwrites with the solutions, the data ``f_values``,
    # one row (n,) for every shift or a C-ordered stack (S, n) of one row per
    # shift, and a column ``a`` (S, 1) of shifts.  A row leaves when it meets
    # ``_TOL``, at ``_MAX_ITER`` iterations, and, with the iterate it had
    # before, when no step length passes its Armijo test; it gets bit for bit
    # what it gets alone.  Returns (solutions, r(solutions), residual_norms,
    # iterations, converged), with r = F - f the data residual.  Every row
    # leaves on an exactly evaluated F: a row whose carried residual norm
    # meets _TOL, or that reaches the cap, has F and its norm evaluated again
    # (see _newton_rows) and converges only if the exact norm meets _TOL; a
    # row that leaves at a failed search is evaluated at the iterate before
    # it.
    valid = (a > 0) & (a < math.inf)
    if not valid.all():
        raise ValueError(f"shift a must be positive and finite, got {a[~valid][0]}")
    if f_values.ndim == 1:
        f_values = np.tile(f_values, (len(a), 1))
    solutions, r_solutions = starts, np.empty_like(starts)
    residual_norms, iterations = np.empty(len(a)), np.zeros(len(a), dtype=int)

    def stop(k, rows, v, r, g_norm, accepted, lam, exact):
        # a row whose search failed is still at the iterate before it, and
        # leaves with that; exact evaluates it there
        at_cap = k == _MAX_ITER
        exact(~accepted | ~(g_norm > _TOL) | at_cap)
        leave = ~accepted | ~(g_norm > _TOL) | at_cap
        if np.count_nonzero(leave):
            done = rows[leave]
            solutions[done], r_solutions[done] = v[leave], r[leave]
            residual_norms[done], iterations[done] = g_norm[leave], k
        return leave

    _newton_rows(model, solutions, f_values, lambda k, rows: a[rows], None, stop)
    return solutions, r_solutions, residual_norms, iterations, residual_norms <= _TOL


def solve_regularized(
    model: OperatorModel, f_delta: GridFunction, a: float
) -> RegularizedSolveReport:
    """Solve F(v) + a*v = f_delta by damped Newton from v = 0, to the absolute
    residual tolerance 1e-12 in the weighted norm within 100 iterations.

    When no step length passes its Armijo test, the iterate before that
    search is returned; at the iteration cap, the current one.  Either way
    ``converged`` is False unless it already meets the tolerance.
    """
    model._check(f_delta)
    # the start 0 as one C-ordered row, which the solve overwrites
    row = np.zeros((1, model.grid.n))
    a = np.array([[a]], dtype=float)
    v, _, norm, iterations, converged = (
        x[0] for x in _regularized_rows(model, f_delta.values, a, row)
    )
    return RegularizedSolveReport(
        GridFunction(model.grid, v), float(norm), int(iterations), bool(converged)
    )
