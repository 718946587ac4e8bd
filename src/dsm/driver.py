"""Run drivers: regularization schedules, stopping rule, and the two
integrators for the damped-Newton dynamical system

    u_{n+1} = u_n - h * (F'(u_n) + a_n I)^{-1} (F(u_n) + a_n u_n - f_delta),
    u_0 given (default 0),

with the discrepancy-principle stop: quit at the first iterate with
``||F(u_n) - f_delta|| < C * delta**gamma``.

The discrepancy ``||F(u_n) - f_delta||`` and the noise level ``delta``
passed in use the plain Euclidean vector norm on node values, the working
convention of the experiment layer (see :mod:`dsm.harness`).

Each step is globalized by :func:`dsm.regsolve.line_search`, the same
backtracking search :func:`dsm.regsolve.solve_regularized` uses, on the
regularized residual ||F(u) + a_n u - f_delta|| in the quadrature-weighted
norm.  The full step (scaled by h) is taken whenever it passes the Armijo
test, so wherever the raw iteration is stable the damping never engages;
halving kicks in only when a step would run away (saturating
nonlinearities at small a_n can trap raw Newton on a plateau it never
leaves).  When no step length passes, the run takes the candidate with the
smallest regularized residual.

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

import time
from dataclasses import dataclass, field

import numpy as np

from .hilbert import GridFunction
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
        if not self.c0 > 0:
            raise ValueError(f"c0 must be positive, got {self.c0}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if int(self.shift) != self.shift or self.shift < 1:
            raise ValueError(f"shift must be an integer >= 1, got {self.shift}")

    def a(self, n: int) -> float:
        return self.c0 * self.delta ** self.p / (n + self.shift)


@dataclass(frozen=True)
class ContinuousSchedule:
    """a(t) = d / (c + t)**b for t >= 0, with d, c, b > 0 and 0 < b <= 1.

    Two informational flags record which analytic side conditions the
    parameters satisfy: ``lemma25_ok`` for c >= max(2b, 1) and
    ``lemma28_ok`` for c > 6b.  Checks that need a condition enforce it
    themselves.
    """

    d: float
    c: float
    b: float

    def __post_init__(self):
        if not (self.d > 0 and self.c > 0 and self.b > 0):
            raise ValueError(f"d, c, b must all be positive, got {(self.d, self.c, self.b)}")
        if self.b > 1.0:
            raise ValueError(f"b must be in (0, 1], got {self.b}")

    @property
    def lemma25_ok(self) -> bool:
        return self.c >= max(2.0 * self.b, 1.0)

    @property
    def lemma28_ok(self) -> bool:
        return self.c > 6.0 * self.b

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
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta}")
        return self.C * delta ** self.gamma


@dataclass
class RunRecord:
    """Trace of one driver run.

    ``residuals[k]`` and ``a_values[k]`` belong to iterate k; both have
    length ``n_stop + 1``.  ``stopped_by_discrepancy`` is False when the
    step cap ran out first (the caller treats that as divergence).
    ``wall_time`` runs from the start of the batch the run belonged to (see
    :func:`run_batch`) to the run's stop.
    """

    final: GridFunction
    n_stop: int
    residuals: np.ndarray
    a_values: np.ndarray
    stopped_by_discrepancy: bool
    wall_time: float = field(default=0.0)


def _a_values(schedule, h, steps):
    # a_n at the given step indices: a discrete schedule at the index, a
    # continuous one at t = n*h
    if isinstance(schedule, DiscreteSchedule):
        return schedule.a(steps)
    return schedule.a(steps * h)


_FIRST_STEPS = 64


def _drive(model, f_values, schedules, thresholds, u, h, max_steps):
    # Rows still running are stacked in u, fu and f_values, next to their
    # tables of a_n and of residuals; ``rows`` maps them back to the batch.
    # The stack is compacted only when a row stops.  The tables start with
    # room for _FIRST_STEPS steps and double when full.
    start = time.perf_counter()
    grid = model.grid

    def a_columns(live, first, stop):
        steps = np.arange(first, stop)
        return np.array([_a_values(schedules[k], h, steps) for k in live])

    records = [None] * len(u)
    rows = np.arange(len(u))
    a_table = a_columns(rows, 0, min(_FIRST_STEPS, max_steps + 1))
    residuals = np.empty_like(a_table)
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
            d = fu - f_values
            res = np.sqrt(np.vecdot(d, d))
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
                        wall_time=wall,
                    )
                if out.all():
                    return records
                keep = ~out
                rows, u, fu, f_values = rows[keep], u[keep], fu[keep], f_values[keep]
                a_table, residuals, thresholds = a_table[keep], residuals[keep], thresholds[keep]
            a_n = a_table[:, n : n + 1]
            g_values, g_norm = regularized_residual(grid, fu, u, a_n, f_values)
            try:
                step = model.solve_shifted_values(u, a_n, g_values)
            except SingularShiftError as err:
                raise SingularShiftError(err.pivot_index, rows[err.row]) from err
            u, fu, _, _, _ = line_search(model, u, fu, h * step, a_n, f_values, g_norm)
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
    if not h > 0:
        raise ValueError(f"step size h must be positive, got {h}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
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
