"""Run drivers: regularization schedules, stopping rule, and the two
integrators for the damped-Newton dynamical system

    u_{n+1} = u_n - h * (F'(u_n) + a_n I)^{-1} (F(u_n) + a_n u_n - f_delta),
    u_0 given (default 0),

with the discrepancy-principle stop: quit at the first iterate with
``||F(u_n) - f_delta|| < C * delta**gamma``.  Like every norm in the
package, the discrepancy and the noise level ``delta`` are in the
quadrature-weighted L^2 norm (:func:`dsm.hilbert.norms`), so the stop
does not depend on the mesh.

Each step is globalized by :func:`dsm.regsolve.line_search`, the same
backtracking search :func:`dsm.regsolve.solve_regularized` uses, on the
regularized residual ||F(u) + a_n u - f_delta|| in the quadrature-weighted
norm.  Each run's search starts at lam0 = min(1, 2*lam_prev), twice the
step length the run last accepted (1 at its first step), and halves from
there: the initial step length of Nocedal & Wright, *Numerical
Optimization* (2006), section 3.5.  Wherever the raw iteration is stable
the full step (scaled by h) passes the Armijo test and the damping never
engages; a run whose steps would run away (saturating nonlinearities at
small a_n can trap raw Newton on a plateau it never leaves) starts near
the damping its last step needed instead of at the full step.  When no
step length passes, the run takes the candidate with the smallest
regularized residual and that candidate's lam; a run with no finite
candidate stays where it is and keeps its lam0.

There is one loop, and it advances a batch: :func:`run_batch` stacks one
row of node values per run, each with its own data, schedule and stopping
threshold, and every step calls the model's unchecked kernels
(:meth:`~dsm.operators.OperatorModel.apply_values`,
:meth:`~dsm.operators.OperatorModel.solve_shifted_values`) and the line
search once for all the rows still running.  A row leaves the stack when it
stops; its record is bit for bit the one it gets when run alone.
:func:`run_iteration` and :func:`run_euler` are the one-row case.  F at the
start point must be finite, and each final iterate is wrapped as a
:class:`~dsm.hilbert.GridFunction` once per run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .hilbert import GridFunction, norms
from .operators import OperatorModel, SingularShiftError
from .regsolve import line_search, regularized_residual, start_values
# unused here; imported only because benchmarks/spans.py patches this name
from .regsolve import solve_shifted_linear  # noqa: F401

__all__ = [
    "DiscreteSchedule",
    "ContinuousSchedule",
    "StoppingRule",
    "RunRecord",
    "run_batch",
    "run_iteration",
    "run_euler",
]


@dataclass(frozen=True)
class DiscreteSchedule:
    """a_n = c0 * delta**p / (n + shift) for integer n >= 0."""

    c0: float
    delta: float
    p: float
    shift: int

    def __post_init__(self):
        if not 0 < self.c0 < math.inf:
            raise ValueError(f"c0 must be positive and finite, got {self.c0}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if not (self.shift >= 1 and float(self.shift).is_integer()):
            raise ValueError(f"shift must be an integer >= 1, got {self.shift}")

    def a(self, n: int) -> float:
        return self.c0 * self.delta ** self.p / (n + self.shift)


@dataclass(frozen=True)
class ContinuousSchedule:
    """a(t) = d / (c + t)**b for t >= 0, with finite d, c > 0 and 0 < b <= 1."""

    d: float
    c: float
    b: float

    def __post_init__(self):
        if not (0 < self.d < math.inf and 0 < self.c < math.inf and self.b > 0):
            raise ValueError(
                f"d, c must be positive and finite and b positive, got {(self.d, self.c, self.b)}"
            )
        if self.b > 1.0:
            raise ValueError(f"b must be in (0, 1], got {self.b}")

    def a(self, t: float):
        return self.d / (self.c + t) ** self.b

    def adot_abs(self, t: float):
        """|da/dt| = b * d / (c + t)**(b + 1); a is strictly decreasing."""
        return self.b * self.d / (self.c + t) ** (self.b + 1.0)


@dataclass(frozen=True)
class StoppingRule:
    """Discrepancy threshold C * delta**gamma with C > 1 and gamma in (0, 1)."""

    C: float = 1.01
    gamma: float = 0.99

    def __post_init__(self):
        if not self.C > 1.0:
            raise ValueError(f"C must be > 1, got {self.C}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")

    def threshold(self, delta: float) -> float:
        # an infinite delta gives a threshold every iterate meets: a vacuous stop
        if not 0 < delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {delta}")
        return self.C * delta ** self.gamma


@dataclass
class RunRecord:
    """Trace of one driver run.

    ``residuals[k]`` and ``a_values[k]`` belong to iterate k; both have
    length ``n_stop + 1``.  ``step_lengths[k]`` is the step length lam the
    line search took from iterate k to k + 1 (the step is lam*h times the
    Newton step), and ``fallback[k]`` is True where no lam passed its
    Armijo test; both have length ``n_stop``.  ``stopped_by_discrepancy``
    is False when the step cap ran out first (the caller treats that as
    divergence).
    ``wall_time`` runs from the start of the batch the run belonged to (see
    :func:`run_batch`) to the run's stop.
    """

    final: GridFunction
    n_stop: int
    residuals: np.ndarray
    a_values: np.ndarray
    stopped_by_discrepancy: bool
    step_lengths: np.ndarray
    fallback: np.ndarray
    wall_time: float = field(default=0.0)


_FIRST_STEPS = 64


def _drive(model, f_values, schedules, thresholds, u, h, max_steps):
    # Rows still running are stacked in u, fu, f_values and lam (each row's
    # last accepted step length), next to their tables of a_n, residuals,
    # step lengths and fallbacks; ``rows`` maps them back to the batch.  The
    # stack is compacted only when a row stops.  The tables start with room
    # for _FIRST_STEPS steps and double when full.
    start = time.perf_counter()
    grid = model.grid

    def a_columns(live, first, stop):
        # a_n at t = n*h; h = 1 for a discrete schedule, whose a at the
        # float n is its a at the integer n
        t = np.arange(first, stop) * h
        return np.array([schedules[k].a(t) for k in live])

    records = [None] * len(u)
    rows = np.arange(len(u))
    a_table = a_columns(rows, 0, min(_FIRST_STEPS, max_steps + 1))
    residuals = np.empty_like(a_table)
    lengths = np.empty_like(a_table)
    fallback = np.empty(a_table.shape, dtype=bool)
    lam = np.ones(len(u))
    # trial points may overflow; the line search rejects them by their norm
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # F(u) is evaluated here once, checked; afterwards every iterate's F
        # comes back from the line search trial that produced it
        fu = model.apply_values(u)
        if not np.isfinite(fu).all():
            raise ValueError("cannot evaluate the model at the start point")
        n = 0
        while True:
            if n == residuals.shape[1]:
                more = a_columns(rows, n, min(2 * n, max_steps + 1))
                a_table = np.hstack([a_table, more])
                residuals = np.hstack([residuals, np.empty_like(more)])
                lengths = np.hstack([lengths, np.empty_like(more)])
                fallback = np.hstack([fallback, np.empty(more.shape, dtype=bool)])
            res = norms(grid, fu - f_values)
            residuals[:, n] = res
            stopped = res < thresholds
            if n == max_steps or np.count_nonzero(stopped):
                out = stopped | (n == max_steps)
                wall = time.perf_counter() - start
                for i in np.flatnonzero(out):
                    records[rows[i]] = RunRecord(
                        final=GridFunction(grid, u[i]),
                        n_stop=n,
                        residuals=residuals[i, : n + 1].copy(),
                        a_values=a_table[i, : n + 1].copy(),
                        stopped_by_discrepancy=bool(stopped[i]),
                        step_lengths=lengths[i, :n].copy(),
                        fallback=fallback[i, :n].copy(),
                        wall_time=wall,
                    )
                if out.all():
                    return records
                keep = ~out
                rows, u, fu, f_values, lam = (x[keep] for x in (rows, u, fu, f_values, lam))
                a_table, residuals, thresholds = a_table[keep], residuals[keep], thresholds[keep]
                lengths, fallback = lengths[keep], fallback[keep]
            a_n = a_table[:, n : n + 1]
            g_values, g_norm = regularized_residual(grid, fu, u, a_n, f_values)
            try:
                step = model.solve_shifted_values(u, a_n, g_values)
            except SingularShiftError as err:
                raise SingularShiftError(err.pivot_index, rows[err.row]) from err
            # lam0 rides on the step's one scaling by h, not a second pass
            # over the stack; as a power of two it changes no other bit
            lam0 = np.minimum(1.0, 2.0 * lam)
            step *= (h * lam0)[:, None]
            u, fu, _, _, accepted, lam = line_search(
                model, u, fu, step, a_n, f_values, g_norm, lam0
            )
            lengths[:, n], fallback[:, n] = lam, ~accepted
            n += 1


def run_batch(
    model: OperatorModel,
    f_deltas,
    deltas,
    schedules,
    rule: StoppingRule | None = None,
    u0: GridFunction | None = None,
    h: float = 1.0,
    max_steps: int = 500,
) -> list:
    """Run one trajectory per row of data, all rows as one iteration.

    Row k starts at ``u0`` (default 0) and solves for the data
    ``f_deltas[k]`` with noise level ``deltas[k]`` and schedule
    ``schedules[k]``: a :class:`DiscreteSchedule` drives the iteration
    (h = 1), a :class:`ContinuousSchedule` is sampled at t = n*h for the
    explicit Euler step h.  Each row stops at its own discrepancy threshold
    or after ``max_steps`` steps.

    Each step calls each Newton kernel once for all the rows still running,
    and a row's record is bit for bit the one it gets when run alone.
    ``RunRecord.wall_time`` is the time from the start of the batch to that
    row's stop.  A :class:`~dsm.operators.SingularShiftError` names the
    batch row it arose in.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"step size h must be positive and finite, got {h}")
    if not (max_steps >= 0 and float(max_steps).is_integer()):
        raise ValueError(f"max_steps must be an integer >= 0, got {max_steps}")
    if not len(f_deltas) == len(deltas) == len(schedules) > 0:
        raise ValueError("need one delta and one schedule per data row, and at least one row")
    for schedule in schedules:
        if not isinstance(schedule, (DiscreteSchedule, ContinuousSchedule)):
            raise ValueError(f"not a DiscreteSchedule or ContinuousSchedule: {schedule!r}")
        if isinstance(schedule, DiscreteSchedule) and h != 1.0:
            raise ValueError(f"a DiscreteSchedule steps with h = 1, got h = {h}")
    rule = rule or StoppingRule()
    thresholds = np.array([rule.threshold(delta) for delta in deltas])
    u = np.array([start_values(model, f_delta, u0) for f_delta in f_deltas])
    f_values = np.array([f_delta.values for f_delta in f_deltas])
    return _drive(model, f_values, list(schedules), thresholds, u, h, max_steps)


def run_iteration(
    model: OperatorModel,
    f_delta: GridFunction,
    delta: float,
    schedule: DiscreteSchedule,
    rule: StoppingRule | None = None,
    u0: GridFunction | None = None,
    max_iter: int = 500,
) -> RunRecord:
    """Run the damped-Newton iteration with the discrete schedule (h = 1):
    the one-row case of :func:`run_batch`."""
    if not isinstance(schedule, DiscreteSchedule):
        raise ValueError("run_iteration needs a DiscreteSchedule")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    return run_batch(model, [f_delta], [delta], [schedule], rule, u0, 1.0, max_iter)[0]


def run_euler(
    model: OperatorModel,
    f_delta: GridFunction,
    delta: float,
    schedule: ContinuousSchedule,
    rule: StoppingRule | None = None,
    u0: GridFunction | None = None,
    h: float = 1.0,
    max_steps: int = 500,
) -> RunRecord:
    """Explicit-Euler integration of the continuous dynamical system: the
    one-row case of :func:`run_batch`.

    a(t) is sampled at the start of each step (t = n*h for iterate n), so
    with h = 1 and matched schedule parameters the trace coincides with
    :func:`run_iteration`.
    """
    if not isinstance(schedule, ContinuousSchedule):
        raise ValueError("run_euler needs a ContinuousSchedule")
    return run_batch(model, [f_delta], [delta], [schedule], rule, u0, h, max_steps)[0]
