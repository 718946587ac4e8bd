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

The loop runs on raw node arrays through the model's unchecked kernels
(:meth:`~dsm.operators.OperatorModel.apply_values`,
:meth:`~dsm.operators.OperatorModel.solve_shifted_values`).  The start point's
F goes through the checked :meth:`~dsm.operators.OperatorModel.apply`, and the
final iterate is wrapped as a :class:`~dsm.hilbert.GridFunction` once per run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .hilbert import GridFunction
from .operators import OperatorModel
from .regsolve import line_search, regularized_residual, start_values
# unused here; imported only because benchmarks/spans.py patches this name
from .regsolve import solve_shifted_linear  # noqa: F401

__all__ = [
    "DiscreteSchedule",
    "ContinuousSchedule",
    "StoppingRule",
    "RunRecord",
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
    """

    final: GridFunction
    n_stop: int
    residuals: np.ndarray
    a_values: np.ndarray
    stopped_by_discrepancy: bool
    wall_time: float = field(default=0.0)


def _drive(model, f_delta, schedule_a, threshold, u0, max_steps, h):
    grid = model.grid
    u = start_values(model, f_delta, u0)
    f_values = f_delta.values
    # F(u) is evaluated here once, checked; afterwards every iterate's F
    # comes back from the line search trial that produced it
    fu = model.apply(GridFunction(grid, u)).values
    residuals = []
    a_values = []
    start = time.perf_counter()
    n = 0
    stopped = False
    while True:
        res = float(np.linalg.norm(fu - f_values))
        a_n = schedule_a(n)
        residuals.append(res)
        a_values.append(a_n)
        if res < threshold:
            stopped = True
            break
        if n >= max_steps:
            break
        g_values, g_norm = regularized_residual(grid, fu, u, a_n, f_values)
        step = model.solve_shifted_values(u, a_n, g_values)
        u, fu, _, _ = line_search(model, u, h * step, a_n, f_values, g_norm)
        n += 1
    wall = time.perf_counter() - start
    return RunRecord(
        final=GridFunction(grid, u),
        n_stop=n,
        residuals=np.asarray(residuals),
        a_values=np.asarray(a_values),
        stopped_by_discrepancy=stopped,
        wall_time=wall,
    )


def run_iteration(
    model: OperatorModel,
    f_delta: GridFunction,
    delta: float,
    schedule: DiscreteSchedule,
    rule: StoppingRule | None = None,
    u0: GridFunction | None = None,
    max_iter: int = 500,
) -> RunRecord:
    """Run the damped-Newton iteration with the discrete schedule (h = 1)."""
    if not isinstance(schedule, DiscreteSchedule):
        raise ValueError("run_iteration needs a DiscreteSchedule")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    rule = rule or StoppingRule()
    threshold = rule.threshold(delta)
    return _drive(model, f_delta, schedule.a, threshold, u0, max_iter, 1.0)


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
    """Explicit-Euler integration of the continuous dynamical system.

    a(t) is sampled at the start of each step (t = n*h for iterate n), so
    with h = 1 and matched schedule parameters the trace coincides with
    :func:`run_iteration`.
    """
    if not isinstance(schedule, ContinuousSchedule):
        raise ValueError("run_euler needs a ContinuousSchedule")
    if not h > 0:
        raise ValueError(f"step size h must be positive, got {h}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    rule = rule or StoppingRule()
    threshold = rule.threshold(delta)
    return _drive(model, f_delta, lambda n: schedule.a(n * h), threshold, u0, max_steps, h)
