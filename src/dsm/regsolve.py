"""Damped Newton for the regularized equation F(v) + a*v = f_delta, and
the package's one damped-Newton loop.

For monotone F and a > 0 the regularized equation has a unique solution;
Newton with a backtracking line search on the regularized residual, in
the weighted L2 norm, finds it from any reasonable starting point.

``_newton_rows`` is that loop.  It advances a stack of rows ``(S, n)`` of
raw node values with one shifted solve and one call of :func:`line_search`
per step, and owns every exit: a row leaves when its caller's stop test
passes, at the caller's step cap, or when its line search accepts no step
length (it stalls: it stays at the iterate it had and leaves there).  The
loop drops a leaving row and its per-row data from the stack, keeps each
row's table of shifts, test values and step lengths, and hands the row,
with what it gets alone, to its caller.  Each caller gives it a shift rule,
a stop test on one iterate, a first step length, a cap and its per-row
arrays: ``_regularized_rows`` (a fixed shift per row, the residual
tolerance ``_TOL``, ``_MAX_ITER`` iterations), behind
:func:`solve_regularized` and the paths of :mod:`dsm.checks`, and
:func:`dsm.driver.run_batch` (a schedule a(t) at t = k*h, the discrepancy
threshold, the step cap).

:func:`line_search` is one loop over the trials u - lam0*2^-k*s, k = 0 to
``_HALVINGS``, on a stack of the rows still searching: a row that passes
leaves the stack with its trial, and a row that never passes keeps the
iterate, r and L u it came in with, so it stalls where it was.

The Newton loop carries each row's data residual r = F(u) - f_delta, not
F(u): f_delta is subtracted once, where F is evaluated.  The Newton
right-hand side is G = a*u + r and a run's discrepancy is ||r||, so no
caller forms F - f_delta again.  G and ||G|| are formed in one place, from
r and the iterate's shift, once per iterate.

Which residuals are exact: F(u) = L u + g(u) runs through the kernel's
running sums at the start and wherever a row is about to leave.  Between
those, each iterate's r, and so its G and ||G||, are carried: the line
search takes a trial's F as L v - lam*L s + g(v - lam*s), with L s = G - D s
read off the Newton equation, so they differ from the exact values by the
rounding of the shifted solves.  A row leaves on exact values only: the
loop evaluates F again for a row that passes its test, stalls or reaches
the cap, and tests it again on that.
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


def line_search(model: OperatorModel, v, rv, lv, step, lstep, a, f_values, g_norm, lam0):
    """Backtracking line search on the regularized residual along v - lam*step,
    row by row.

    ``v``, ``rv`` = F(v) - f_delta, ``lv`` = L v, ``step`` (the Newton step),
    ``lstep`` = L step and ``f_values`` (f_delta) are stacks of rows ``(S, n)``,
    with L the linear part of F(u) = L u + g(u) (the kernel E W, or I for the
    identity model); ``a`` is a column ``(S, 1)`` of per-row shifts and
    ``g_norm`` the weighted norm of each row's G(v) = a*v + rv.  ``lam0``
    holds each row's first step length, a fraction of the Newton step: trial
    k of a row is v - lam*step at lam = lam0*2^-k.  A trial's F is not
    evaluated through the kernel: it is L v - lam*L step + g(v - lam*step),
    so F is carried, exact up to the rounding of the carried L v and of
    L step; the trial subtracts f_delta from it once, for its data residual
    r.  Each row tries k = 0, 1, ... (``_HALVINGS`` halvings) and accepts its
    first candidate with ||G|| < (1 - 1e-4*lam) * g_norm (Armijo).  For a
    Newton direction the slope of ||G(v - lam*s)|| at lam = 0 is -g_norm, so
    a small enough lam always passes unless rounding intervenes, whatever
    lam0 is.  The test is strict, so a trial that leaves v where it was
    (its norm is g_norm) fails at every lam, also once 1 - 1e-4*lam rounds
    to exactly 1, below lam = 2^-54/1e-4, about 5.6e-13, which trial 40
    reaches from any lam0 <= 1/2.  A row whose trials no longer move it
    thus fails every one and stalls, instead of taking steps of length
    4.5e-13 to its caller's cap.

    One loop runs the trials k = 0, 1, ..., ``_HALVINGS`` on a stack of the
    rows still searching, so a row's trial count is k + 1 at the k where it
    passes.  When every row passes at one trial and none passed before it,
    that trial is the result.  Otherwise the result starts, at the first
    trial, from copies of each row's v, r, L v and lam0; a row that passes
    is written into it and leaves the stack.  A row where no step length
    passes thus keeps, bit for bit, what it came in with; the Newton loop
    ends such a row there.

    Returns ``(iterate, r(iterate), L iterate, accepted, lam)``, one entry
    per row, r and L carried from the trial that made the iterate; the
    caller forms G and ||G|| at the iterate with its next shift.  No
    search runs the kernel's running sums.  Trial points may
    overflow: call it under ``np.errstate(over="ignore", invalid="ignore")``,
    as the Newton loop does.
    """
    grid = model.grid
    stack, lam = (v, lv, step, lstep, a, f_values, g_norm), lam0
    for k in range(_HALVINGS + 1):
        vk, lvk, sk, lsk, ak, fk, gk = stack
        column = lam[:, None]
        candidate = vk - column * sk
        lc = lvk - column * lsk
        rc = model._with_g(candidate, lc) - fk
        norm = regularized_residual(grid, rc, candidate, ak)[1]
        passed = norm < (1.0 - _DECREASE_SLACK * lam) * gk
        n_passed = np.count_nonzero(passed)
        if n_passed == len(v):
            # no row passed before this trial, and every row passes here
            return candidate, rc, lc, passed, lam
        if not k:
            # each row starts from what it came in with, which a row that
            # never passes keeps
            result = v.copy(), rv.copy(), lv.copy(), np.zeros(len(v), dtype=bool), lam0.copy()
            rows = np.arange(len(v))
        if n_passed:
            passing = rows[passed]
            for out, trial in zip(result, (candidate, rc, lc, passed, lam)):
                out[passing] = trial[passed]
            if n_passed == len(rows):
                return result
            keep = ~passed
            rows, lam = rows[keep], lam[keep]
            stack = tuple(x[keep] for x in stack)
        lam = 0.5 * lam
    return result


def _newton_rows(
    model: OperatorModel, u, f_values, per_row, shifts, test, first_step, cap, done
):
    """Step each row of ``u`` ``(S, n)`` still in the stack to u - lam*s,
    (F'(u) + a*I) s = r + a*u with r = F(u) - f the row's data residual and f
    its row of ``f_values``, until every row has left, and return one entry
    per batch row: what ``done`` made of it.  The loop carries r, not F: it
    subtracts f once, where F is evaluated, and every reader takes r.

    The caller gives its rules and its per-row data; the loop does the rest.
    ``per_row`` is a tuple of the caller's per-row arrays, each ``(S,)`` or
    ``(S, 1)``.  The loop drops a row's entries when it drops the row, so
    they always match the stack, and hands them, unpacked, to the two rules:

    - ``shifts(k, *per_row)`` gives iterate k's column ``(S, 1)`` of shifts.
      The loop calls it once per iterate and forms G(u) = a*u + r and
      ||G(u)|| from it in that one place.
    - ``test(r, ||G(u)||, *per_row)`` is the stop test on one iterate: it
      returns each row's value, a residual norm, and whether it passes.

    ``first_step(lam)`` returns each row's first step length lam0 for the
    search, a fraction of the Newton step s, from the length lam it last took
    (inf before the first step); the search forms its trials u - lam*s
    itself, so no rule writes an array the loop steps.

    A row leaves at iterate k (0 at the start) in one of three ways: its
    value passes; k reaches ``cap``; or it has stalled: the search that was
    to make iterate k accepted no step length, so the row is still at iterate
    k - 1, and it ends there.  The loop keeps each row's shift, value and
    step length by iterate in one table, with room for 64 iterates, then
    doubling up to ``cap + 1``.  A row leaving at iterate m (k - 1 if it
    stalled, k if not) gets ``done(u, r, value, k, passed, stalled,
    columns)``: its iterate and r, its value there, k, two bools, and its
    table columns ``(3, m + 1)``: the shifts and values of iterates 0 to m
    and the step lengths taken from them, the last one unused.

    F is evaluated through the kernel's running sums once, at the start.
    After that each iterate's r and L u are carried: they come from the line
    search trial that made the iterate (see :func:`line_search`), with
    L s = G - D s from the Newton equation, D = g'(u) + a.  That L s is off
    by the shifted solve's residual, which each step adds to the carried r
    times its step length, so the carried values drift from the exact ones:
    by up to 1.7e-9 of the discrepancy over exp1's 55 steps on 1000 points.
    So a row leaves only on an exactly evaluated F (residual replacement, as
    in Krylov solvers: van der Vorst & Ye, SIAM J. Sci. Comput. 22, 2000).
    A row that passes on its carried value, stalls or reaches the cap has
    its F and L u evaluated again, and so its r, G(u) and ||G(u)||, and is
    tested again on those; its value in the table is the exact one.  A row
    whose exact value does not pass goes on from it.  Iterate 0's values are
    exact already.
    """
    grid = model.grid
    rows, out = np.arange(len(u)), [None] * len(u)
    lam, accepted = np.full(len(u), math.inf), np.ones(len(u), dtype=bool)
    table = np.empty((3, len(u), 0))

    # trial points may overflow; the line search rejects them by their norm
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fu, lu = model._split_values(u)
        if not np.isfinite(fu).all():
            raise ValueError("cannot evaluate the model at the start point")
        r = fu - f_values
        del fu
        k = 0
        while True:
            if k == table.shape[2]:
                room = np.empty((3, len(rows), min(max(k, 64), cap + 1 - k)))
                table = np.concatenate([table, room], axis=2)
            a = shifts(k, *per_row)
            g, g_norm = regularized_residual(grid, r, u, a)
            value, passed = test(r, g_norm, *per_row)
            stalled = ~accepted
            leave = passed | stalled | (k == cap)
            if k and np.count_nonzero(leave):
                i = np.flatnonzero(leave)
                fu, lu[i] = model._split_values(u[i])
                r[i] = fu - f_values[i]
                g[i], g_norm[i] = regularized_residual(grid, r[i], u[i], a[i])
                value, passed = test(r, g_norm, *per_row)
                leave = passed | stalled | (k == cap)
            table[0, :, k], table[1, :, k] = a[:, 0], value
            if k:
                table[2, :, k - 1] = lam
            n_leave = np.count_nonzero(leave)
            if n_leave:
                for i in np.flatnonzero(leave).tolist():
                    m = k - 1 if stalled[i] else k
                    columns = table[:, i, : m + 1].copy()
                    columns[1, m] = value[i]
                    out[rows[i]] = done(
                        u[i], r[i], value[i], k, bool(passed[i]), bool(stalled[i]), columns
                    )
                if n_leave == len(rows):
                    return out
                keep = ~leave
                rows, u, r, lu, f_values, a, g, g_norm, lam = (
                    x[keep] for x in (rows, u, r, lu, f_values, a, g, g_norm, lam)
                )
                table, per_row = table[:, keep], tuple(x[keep] for x in per_row)
            try:
                step, lstep = model._newton_step(u, a, g)
            except SingularShiftError as err:
                raise SingularShiftError(err.pivot_index, rows[err.row]) from err
            # G goes before the line search: the search holds about a dozen
            # (S, n) arrays at its peak
            del g
            u, r, lu, accepted, lam = line_search(
                model, u, r, lu, step, lstep, a, f_values, g_norm, first_step(lam)
            )
            # as G above: the step and its image go before the next solve
            del step, lstep
            k += 1


def _regularized_rows(model: OperatorModel, f_values, a, starts):
    # Solve F(v) + a*v = f by damped Newton for a stack of rows on raw arrays,
    # all rows taking full steps in one stack: from the rows ``starts``
    # (S, n), for the data ``f_values``, one row (n,) for every shift or a
    # stack (S, n) of one row per shift, and a column ``a`` (S, 1) of shifts.
    # A row converges when its residual norm, exactly evaluated, meets
    # ``_TOL``, and leaves unconverged at ``_MAX_ITER`` iterations or, with
    # the iterate it had before, when no step length passes its Armijo test
    # (see _newton_rows); it gets bit for bit what it gets alone.  Returns
    # (solutions, r(solutions), residual_norms, iterations, converged), with
    # r = F - f the data residual; a row that stalled counts its failed
    # search as an iteration.
    valid = (a > 0) & (a < math.inf)
    if not valid.all():
        raise ValueError(f"shift a must be positive and finite, got {a[~valid][0]}")
    if f_values.ndim == 1:
        f_values = np.tile(f_values, (len(a), 1))
    solved = _newton_rows(
        model, starts, f_values, (a,), lambda k, a: a,
        lambda r, g_norm, a: (g_norm, ~(g_norm > _TOL)), np.ones_like, _MAX_ITER,
        lambda v, r, norm, k, *_: (v, r, norm, k),
    )
    solutions, r_solutions, residual_norms, iterations = map(np.array, zip(*solved))
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
    row = np.zeros((1, model.grid.n))
    a = np.array([[a]], dtype=float)
    v, _, norm, iterations, converged = (
        x[0] for x in _regularized_rows(model, f_delta.values, a, row)
    )
    return RegularizedSolveReport(
        GridFunction(model.grid, v), float(norm), int(iterations), bool(converged)
    )
