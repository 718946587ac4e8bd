"""Run drivers: regularization schedules, stopping rule, and the two
integrators for the damped-Newton dynamical system

    u_{n+1} = u_n - lam_n * (F'(u_n) + a_n I)^{-1} (F(u_n) + a_n u_n - f_delta),
    u_0 given (default 0), lam_n = h where the full Euler step passes,

with the discrepancy-principle stop: quit at the first iterate with
``||F(u_n) - f_delta|| < C * delta**gamma``.  Like every norm in the
package, the discrepancy and ``delta`` are in the quadrature-weighted L^2
norm (:func:`dsm.hilbert.norms`), so the stop does not depend on the mesh.

:func:`run_batch` takes a batch of runs, one row each with its own data,
schedule and threshold, through the package's one Newton loop (see
:mod:`dsm.regsolve`); :func:`run_iteration` and :func:`run_euler` are its
one-row case.  It gives the loop the shift rule a(t) at t = n*h, the
threshold test ||F(u_n) - f_delta|| < C * delta**gamma, the first step
length and the step cap, and makes a :class:`RunRecord` of each row the loop
hands back.  The loop owns the rest: the step table, the stall, the cap, and
the exact evaluation of F(u_n) before a run leaves, so a run stops only on
an exactly evaluated discrepancy; between stops the loop carries the data
residual F(u_n) - f_delta from its line search.

A step length lam is flow time, the fraction of the Newton step taken.  A
run's line search starts at the full Euler step h, and after that at
min(h, 2*lam), twice the step length it last took (Nocedal & Wright,
*Numerical Optimization*, 2006, section 3.5), so the full step h is taken
wherever the raw iteration is stable, and lam is always h*2^-j.
Where no step length passes, the run stalls: it stays at the iterate it had
and ends there, on F evaluated there exactly, as the regularized solve does
(see :mod:`dsm.regsolve`).

There is one schedule type, :class:`ContinuousSchedule`, a(t) = d / (c + t)**b,
and every run takes it at t = n*h.  The paper's discrete a_n = c0 *
delta**p / (n + shift) is that form with b = 1 sampled at h = 1;
:func:`DiscreteSchedule` builds it.  The step size h alone picks the
integrator: h = 1 is the paper's iteration, any other h explicit Euler on the
continuous flow.  Once h is small, a run stops near the same flow time
t = n*h at any h, so an Euler run needs a step cap of at least t_stop/h.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .hilbert import GridFunction, norms
from .operators import OperatorModel
from .regsolve import _newton_rows
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
class ContinuousSchedule:
    """a(t) = d / (c + t)**b for t >= 0, with finite d, c > 0 and 0 < b <= 1.

    d must be a normal double, at least ``sys.float_info.min``: a subnormal d
    gives shifts with few significant bits, which the shifted solve can take
    as a numerically singular pivot (d = 7e-322 did).
    """

    d: float
    c: float
    b: float

    def __post_init__(self):
        if not (sys.float_info.min <= self.d < math.inf and 0 < self.c < math.inf and self.b > 0):
            raise ValueError(
                "d, c must be positive and finite, d not below the smallest normal double "
                f"{sys.float_info.min}, and b positive, got {(self.d, self.c, self.b)}"
            )
        if self.b > 1.0:
            raise ValueError(f"b must be in (0, 1], got {self.b}")

    def a(self, t: float):
        return self.d / (self.c + t) ** self.b

    def adot_abs(self, t: float):
        """|da/dt| = b * d / (c + t)**(b + 1); a is strictly decreasing."""
        return self.b * self.d / (self.c + t) ** (self.b + 1.0)


def DiscreteSchedule(c0: float, delta: float, p: float, shift: int) -> ContinuousSchedule:
    """The paper's a_n = c0 * delta**p / (n + shift) for integer n >= 0.

    That is the continuous form a(t) = d / (c + t)**b sampled at t = n, so
    this returns ``ContinuousSchedule(d=c0 * delta**p, c=float(shift), b=1)``:
    the one schedule type, which :func:`run_batch` steps with any h.  A d that
    overflows, vanishes or is subnormal raises ``ValueError`` here, as
    ContinuousSchedule checks it.
    """
    if not 0 < c0 < math.inf:
        raise ValueError(f"c0 must be positive and finite, got {c0}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if not (shift >= 1 and float(shift).is_integer()):
        raise ValueError(f"shift must be an integer >= 1, got {shift}")
    return ContinuousSchedule(d=c0 * delta ** p, c=float(shift), b=1.0)


@dataclass(frozen=True)
class StoppingRule:
    """Discrepancy threshold C * delta**gamma with finite C > 1 and gamma in (0, 1)."""

    C: float = 1.01
    gamma: float = 0.99

    def __post_init__(self):
        # an infinite C gives a threshold every iterate meets: a vacuous stop
        if not 1.0 < self.C < math.inf:
            raise ValueError(f"C must be > 1 and finite, got {self.C}")
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
    length ``n_stop + 1``.  ``a_values[k]`` is the shift the loop used at
    iterate k, a(t) at t = k*h: in its regularized residual and in the step
    from it.  The last residual is the discrepancy of an exactly evaluated
    F(final), as are ``residuals[0]`` and any residual whose carried value
    met the threshold and was replaced; the others are carried from the
    Newton equation (see :func:`dsm.regsolve.line_search`) and differ from
    the exact ones by the rounding of the shifted solves: by at most 3.4e-10
    relative on the benchmark's presets and stiff cells and 1.7e-9 on exp1
    at n = 1000.  ``step_lengths[k]`` is the step length lam the line search
    took from iterate k to k + 1, in flow time: the step is lam times the
    Newton step, lam = h*2^-j for some j >= 0, and h for a full Euler step.
    It has length ``n_stop``.  A run ends in one of three states:

    - stopped: ``stopped_by_discrepancy`` is True;
    - capped: it is False and ``n_stop`` equals the step cap (the caller
      treats that as divergence);
    - stalled: it is False and ``n_stop`` is below the cap.  The line search
      from iterate ``n_stop`` accepted no step length, so the run stayed
      there and ended.

    ``wall_time`` runs from the start of the batch the run belonged to (see
    :func:`run_batch`) to the run's end, when the Newton loop handed it back
    in one of those three states.
    """

    final: GridFunction
    n_stop: int
    residuals: np.ndarray
    a_values: np.ndarray
    stopped_by_discrepancy: bool
    step_lengths: np.ndarray
    wall_time: float = field(default=0.0)


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
    ``f_deltas[k]`` with noise level ``deltas[k]`` and the
    :class:`ContinuousSchedule` ``schedules[k]`` (:func:`DiscreteSchedule`
    builds the paper's a_n as one).  The rows' d, c and b become ``(S, 1)``
    columns once, and step n takes a(t) = d/(c + t)**b at t = n*h: h = 1 is
    the paper's iteration, any other h the explicit Euler step.  Each step's
    line search tries the full step h first, and the recorded step lengths
    are flow time (see :class:`RunRecord`).  Each row stops at its own
    discrepancy threshold or after ``max_steps`` steps; once h is small, near
    the same flow time n*h at any h, so ``max_steps`` must be at least that
    time over h.

    Each step calls each Newton kernel once for all the rows still running,
    and a row's record is bit for bit the one it gets when run alone.
    ``RunRecord.wall_time`` is the time from the start of the batch to that
    row's end: its stop, cap or stall.  A
    :class:`~dsm.operators.SingularShiftError` names the batch row it arose
    in.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"step size h must be positive and finite, got {h}")
    if not (max_steps >= 0 and float(max_steps).is_integer()):
        raise ValueError(f"max_steps must be an integer >= 0, got {max_steps}")
    max_steps = int(max_steps)
    if not len(f_deltas) == len(deltas) == len(schedules) > 0:
        raise ValueError("need one delta and one schedule per data row, and at least one row")
    for schedule in schedules:
        if not isinstance(schedule, ContinuousSchedule):
            raise ValueError(f"not a ContinuousSchedule: {schedule!r}")
    rule = rule or StoppingRule()
    thresholds = np.array([rule.threshold(delta) for delta in deltas])
    model._check(u0, *f_deltas)
    u = np.tile(np.zeros(model.grid.n) if u0 is None else u0.values, (len(f_deltas), 1))
    f_values = np.array([f_delta.values for f_delta in f_deltas])
    # the schedules' d, c and b as three contiguous (S, 1) columns, and the
    # powers other than 1 (b = 1 takes none), each with its exponent as a
    # scalar, as ContinuousSchedule.a takes it: numpy takes x ** 0.5 as
    # sqrt(x), which differs from pow(x, 0.5) in the last bit
    d, c, b = np.array([[s.d, s.c, s.b] for s in schedules]).T[:, :, None].copy()
    powers = set(b.ravel().tolist()) - {1.0}

    def shifts(n, d, c, b, threshold):
        base = c + n * h
        for power in powers:
            base[b == power] **= power
        return d / base

    def test(r, g_norm, d, c, b, threshold):
        res = norms(model.grid, r)
        return res, res < threshold

    def record(u, r, res, n, stopped, stalled, columns):
        # a stalled run ends at the iterate it stayed at, n - 1
        a_values, residuals, lengths = columns
        return RunRecord(
            GridFunction(model.grid, u), n - stalled, residuals, a_values, stopped,
            lengths[:-1], time.perf_counter() - start,
        )

    start = time.perf_counter()
    # the first trial is the full Euler step h, then twice the last length
    # (lam is inf before the first step), so lam is always h*2^-j
    return _newton_rows(
        model, u, f_values, (d, c, b, thresholds), shifts, test,
        lambda lam: np.minimum(h, 2.0 * lam), max_steps, record,
    )


def run_iteration(
    model: OperatorModel,
    f_delta: GridFunction,
    delta: float,
    schedule: ContinuousSchedule,
    rule: StoppingRule | None = None,
    u0: GridFunction | None = None,
    max_iter: int = 500,
) -> RunRecord:
    """Run the paper's damped-Newton iteration, h = 1, so step n takes a(n)
    (the paper's a_n for a schedule from :func:`DiscreteSchedule`): the
    one-row case of :func:`run_batch`."""
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
    with h = 1 the trace is :func:`run_iteration`'s on the same schedule.
    Each step's line search tries the full Euler step h first, at any h > 0,
    and the recorded step lengths are flow time (h for a full step).  The
    run stops near the same flow time whatever small h it takes, so it needs
    ``max_steps`` of at least t_stop/h: about 4.44/h on the exp2-const
    preset's cell at 3% noise.
    """
    return run_batch(model, [f_delta], [delta], [schedule], rule, u0, h, max_steps)[0]
