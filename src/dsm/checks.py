"""Executable checks of the analytic facts behind the regularized equation.

Every check here verifies, with explicit numeric margins and at one fixed
setting (the module constants below), a property that holds for monotone F
and the schedules used by the drivers:

* along a decreasing regularization sweep, the data residual of the
  regularized solution decreases strictly while its norm increases;
* the regularized solutions with noisy and exact data stay within delta/a
  of each other, and the exact-data solution never exceeds the true
  solution's norm;
* for large a the regularized solution shrinks like 1/a, with the
  derivative norm near zero sampled at random probe points;
* the residual-equals-C*delta crossing time exists and can be bracketed;
* two scalar integral inequalities for a(t) = d/(c+t)^b schedules;
* a Gronwall-type majorant g(t) stays strictly below a(t)/lam.

All norms in this module are quadrature-weighted, taken by
:func:`~dsm.hilbert.norms` on raw node arrays.  Checks return a
:class:`CheckReport`; precondition violations raise ``ValueError``, as
does a check left with no margin to test, which would otherwise pass.

No check forms an n x n matrix: the large-a check's power iteration for
the derivative norm runs through the model's O(n) kernel, so every check
runs on grids of any size.  Every regularized solve follows the path of
solutions V(a) from the largest a down, on raw arrays: consecutive stacked
Newton solves in which each row carries its own data row and starts from
the last solution on that data (from 0 in the first stack).  The suite's
three sweeps of a model are one path, a lone trajectory or the large-a
shifts the one-sweep case, and the crossing search's doubling times one
more, before Illinois regula falsi narrows its bracket, one solve per step.
The data residual ||F(V) - f_delta|| is the norm of the residual the solve
returns, and norms and margins are taken a whole ``(S, n)`` stack at a
time.  The Gronwall check advances its two RK4 solutions (steps dt and
dt/2) in one scalar loop, its stages written out, that evaluates the
schedule once per distinct stage time, and holds O(1) floats at any step
count.

Every random draw comes from the package's one counter-based SplitMix64
stream, the one behind the Gaussian noise; ``numpy.random`` is never
imported.  Each large-a probe draws, from seed 7, its direction and its
power-iteration start uniform on [-1, 1) per node and its radius uniform on
[0, 1); the suite draws the exponential-integral check's parameters from
seed 2024.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import regsolve
from .driver import ContinuousSchedule
from .harness import _uniforms, calibrate_noise, exact_solution, sine_noise
from .hilbert import GridFunction, GridMismatchError, QuadratureGrid, norm, norms
from .operators import OperatorModel, SingularShiftError
from .regsolve import ConvergenceError, _regularized_rows, solve_regularized

__all__ = [
    "CheckReport",
    "Trajectory",
    "build_trajectory",
    "check_monotonicity",
    "check_perturbation_bounds",
    "check_large_a_limit",
    "find_crossing_time",
    "check_exponential_integral_bound",
    "check_weighted_integral_bound",
    "check_gronwall_majorant",
    "run_lemma_suite",
    "reports_to_csv",
    "format_reports",
]

_TINY = 1e-300

# Each check's one setting.  Tolerances are on the worst margin: relative per
# step for monotonicity, absolute elsewhere.
_MONOTONICITY_RTOL = 1e-9
_LARGE_A_TOL = 1e-8
_LARGE_A_SHIFTS = (1e2, 1e3, 1e4)
_PROBE_SEED = 7  # the large-a probes' seed in the package's SplitMix64 stream
_PROBES = 10
_POWER_STEPS = 50
_CROSSING_TOL = 1e-8  # |phi(t1) - C*delta| at the returned crossing time
_MAX_DOUBLINGS = 30  # the crossing bracket reaches at most T = 2**30
_SIMPSON_PANELS = 10_000


@dataclass
class CheckReport:
    """Outcome of one check: ``passed`` iff ``worst_margin >= -tolerance``."""

    name: str
    passed: bool
    worst_margin: float
    samples: int
    tolerance: float
    details: list = field(default_factory=list, repr=False)


def _report(name, margins, tolerance):
    margins = np.asarray(margins, dtype=float)
    if not margins.size:
        raise ValueError(f"{name}: no margins to check")
    worst = float(margins.min())
    return CheckReport(
        name=name,
        passed=bool(worst >= -tolerance),
        worst_margin=worst,
        samples=int(margins.size),
        tolerance=float(tolerance),
        details=margins.tolist(),
    )


@dataclass
class Trajectory:
    """Regularized solutions swept over a strictly decreasing a-grid.

    ``solutions`` is the ``(S, n)`` array of node values whose row k is the
    solution V_k at ``a_values[k]``; ``residual_norms[k] = ||F(V_k) - f_delta||``
    and ``solution_norms[k] = ||V_k||``; ``eq_residuals[k]`` is the solver's
    residual for the regularized equation itself, within the regularized
    solve's tolerance of 1e-12.
    """

    model: OperatorModel
    f_delta: GridFunction
    a_values: np.ndarray
    solutions: np.ndarray
    residual_norms: np.ndarray
    solution_norms: np.ndarray
    eq_residuals: np.ndarray


def _raise_unconverged(where, residual_norm):
    raise ConvergenceError(
        f"regularized solve did not converge at {where} (residual {residual_norm:.3e})"
    )


def _data_residual_norms(model, f_delta, values):
    # ||F(v) - f_delta|| of one row of node values, or of each row of a stack
    return norms(model.grid, model.apply_values(values) - f_delta.values)


# A path of regularized solutions V(a) is followed from the largest a down
# (Allgower & Georg, *Numerical Continuation Methods*, 1990): its S rows, by
# decreasing a over D = log10(a_max/a_min) decades, split evenly into
# ceil(sqrt(S*D)/_PATH_STACK_ROOT) stacks.  A stack takes as many steps as its
# slowest row, more the further a falls in it, and a step costs a fixed
# overhead plus a share per row, so k stacks cost about k*fixed +
# S*D/k*per-row, least near k ~ sqrt(S*D).  By this constant (3.5/4/4.5/5/6)
# three models' merged 141-row suite paths took 23.3/22.0/22.0/21.3/20.9 ms,
# lone 20-row sweeps 6.7/7.9/6.4/8.5/9.8 and lone 101-row t-grids (D = 0.91)
# 16.3/17.2/16.8/17.6/17.1 (medians of 15 rounds, 2-core Xeon, 1 BLAS thread).
_PATH_STACK_ROOT = 4.5

# The crossing search's doubling times t = 0, 1, 2, 4, ... run as one path in
# stacks of this many: 9 reach t = 128, a(0)/19 on the suite's schedule, and
# leave one stack per model; 4/5/6/9 took 9.6/9.2/10.3/9.9 ms (31 rounds).
_DOUBLING_STACK_ROWS = 9


def _trajectories(model, sweeps):
    # Solve F(V) + a V = f for every pair (f, a_values) of ``sweeps`` and
    # every a of it, all rows of all sweeps as one path by decreasing a, each
    # row on its own data and started from the last solution on that data in
    # the stacks before (0 in the first); the first a, sweep by sweep, whose
    # solve did not converge raises ConvergenceError.  Returns one Trajectory
    # per sweep, its residuals ||F(V) - f|| the norms of the solve's r = F(V) - f.
    model._check(*(f for f, _ in sweeps))
    start = np.zeros(model.grid.n)
    sizes = [len(a) for _, a in sweeps]
    a_values = np.concatenate([a for _, a in sweeps])
    # each row's data, named by the first sweep on it; of the (S, n) stacks
    # only the solutions are kept whole, the rest is taken a stack at a time
    first = [next(j for j, (g, _) in enumerate(sweeps) if g is f) for f, _ in sweeps]
    data = np.repeat(first, sizes)
    values = np.stack([f.values for f, _ in sweeps])
    solutions = np.empty((len(a_values), model.grid.n))
    eq_res, res_norms, sol_norms = (np.empty(len(a_values)) for _ in range(3))
    converged = np.empty(len(a_values), dtype=bool)
    last = {}  # the last solution on each data so far
    order = np.argsort(-a_values, kind="stable")
    decades = math.log10(a_values[order[0]] / a_values[order[-1]])
    stacks = max(1, math.ceil(math.sqrt(len(order) * decades) / _PATH_STACK_ROOT))
    for chunk in np.array_split(order, stacks):
        keys = data[chunk].tolist()
        try:
            v, r, eq_res[chunk], _, converged[chunk] = _regularized_rows(
                model, values[keys], a_values[chunk, None],
                np.array([last.get(key, start) for key in keys]),
            )
        except SingularShiftError as err:
            raise SingularShiftError(err.pivot_index, chunk[err.row]) from err
        solutions[chunk] = v
        res_norms[chunk], sol_norms[chunk] = norms(model.grid, r), norms(model.grid, v)
        last.update(zip(keys, v))
    if not converged.all():
        k = int(np.argmin(converged))
        _raise_unconverged(f"a={a_values[k]:g}", eq_res[k])
    bounds = np.cumsum(sizes)[:-1]
    columns = (np.split(x, bounds) for x in (solutions, res_norms, sol_norms, eq_res))
    return [Trajectory(model, f, a, *rows) for (f, a), *rows in zip(sweeps, *columns)]


def _validate_a_grid(a_values):
    a_values = np.asarray(a_values, dtype=float)
    if a_values.ndim != 1 or a_values.size == 0:
        raise ValueError("a_values must be a nonempty 1-d sequence")
    if not np.all((a_values > 0) & (a_values < math.inf)):
        raise ValueError("a_values must be strictly positive and finite")
    if not np.all(np.diff(a_values) < 0):
        raise ValueError("a_values must be strictly decreasing")
    return a_values


def build_trajectory(model: OperatorModel, f_delta: GridFunction, a_values) -> Trajectory:
    """Solve F(V) + a V = f_delta for every a of the strictly decreasing
    ``a_values``, following the path of solutions: consecutive stacks of
    damped-Newton solves on raw arrays, the first started from 0 and every
    row of each next one from the last solution of the one before.  Each
    row meets the solver's tolerance tol = 1e-12, so it lies within 2*tol/a
    of its own solve from 0 (strong monotonicity of F + a I); the first a
    that does not raises ``ConvergenceError``."""
    return _trajectories(model, [(f_delta, _validate_a_grid(a_values))])[0]


def check_monotonicity(traj: Trajectory) -> CheckReport:
    """Residual norms strictly decrease and solution norms strictly increase
    along decreasing a, with per-step relative tolerance 1e-9."""
    _validate_a_grid(traj.a_values)
    if _data_residual_norms(traj.model, traj.f_delta, np.zeros(traj.model.grid.n)) == 0.0:
        raise ValueError("data coincides with F(0); sweep is degenerate")
    phi = traj.residual_norms
    psi = traj.solution_norms
    margins = np.column_stack((
        (phi[:-1] - phi[1:]) / np.maximum(phi[:-1], _TINY),
        (psi[1:] - psi[:-1]) / np.maximum(psi[1:], _TINY),
    )).ravel()
    return _report("monotonicity", margins, _MONOTONICITY_RTOL)


def check_perturbation_bounds(
    traj_noisy: Trajectory,
    traj_exact: Trajectory,
    exact: GridFunction,
    delta: float,
) -> CheckReport:
    """At every a on a shared sweep, with V from exact data and V_d from
    data at distance delta:

        ||V_d - V|| <= delta/a,   ||V|| <= ||exact||,
        ||V_d||     <= ||exact|| + delta/a,

    to a tolerance of ten times the regularized solve's tolerance plus 1e-9.
    """
    if not np.array_equal(traj_noisy.a_values, traj_exact.a_values):
        raise ValueError("trajectories must share the same a-grid")
    grid = traj_noisy.model.grid
    if not traj_exact.model.grid == exact.grid == grid:
        raise GridMismatchError("trajectories and the exact solution must share one grid")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    tol = 10.0 * regsolve._TOL + 1e-9
    y_norm = norm(exact)
    bound = delta / traj_noisy.a_values
    margins = np.column_stack((
        bound - norms(grid, traj_noisy.solutions - traj_exact.solutions),
        y_norm - traj_exact.solution_norms,
        y_norm + bound - traj_noisy.solution_norms,
    )).ravel()
    return _report("perturbation_bounds", margins, tol)


def _derivative_norm_bound(model):
    # The largest weighted operator norm of F'(u) over _PROBES random points u
    # of the weighted unit ball, by _POWER_STEPS steps of power iteration from
    # random starts.  That norm is the spectral norm of the symmetric
    # S = W^(1/2) E W^(1/2) + diag(g'(u)) (S = I for the identity model); the
    # iteration runs on S^T S = S^2 for all probes at once, a stack of rows
    # through the O(n) kernel.  Probe k takes counters k(2n + 1) on: its
    # direction g, its start x, then its radius r; u = (r/||g||) g.
    grid = model.grid
    n = grid.n
    draws = _uniforms(_PROBE_SEED, np.arange(_PROBES * (2 * n + 1), dtype=np.uint64))
    draws = draws.reshape(_PROBES, 2 * n + 1)
    g = 2.0 * draws[:, :n] - 1.0
    x = 2.0 * draws[:, n:2 * n] - 1.0
    points = (draws[:, 2 * n] / np.maximum(norms(grid, g), _TINY))[:, None] * g
    if model.kind == "identity":
        def s_times(v):
            return v
    else:
        sqrt_w = np.sqrt(grid.weights)
        gprime = 0.0 if model._gprime is None else model._gprime(points)

        def s_times(v):
            return sqrt_w * model._kernel_values(v / sqrt_w) + gprime * v
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    for _ in range(_POWER_STEPS):
        y = s_times(s_times(x))
        y_norm = np.linalg.norm(y, axis=1, keepdims=True)
        # a row that reaches zero stays zero, and its norm estimate is 0
        y_norm[y_norm == 0.0] = 1.0
        x = y / y_norm
    return float(np.linalg.norm(s_times(x), axis=1).max(initial=0.0))


def check_large_a_limit(model: OperatorModel, f_delta: GridFunction) -> CheckReport:
    """For the large shifts a = 1e2, 1e3, 1e4 the regularized solution obeys
    ||V|| <= ||f_delta - F(0)||/a, and the residual stays within M1*||V|| of
    ||f_delta - F(0)||, where M1 bounds the derivative norm near zero
    (sampled over random points in the weighted unit ball); both to a
    tolerance of 1e-8.

    M1 is the largest weighted operator norm of F' over 10 points, each by
    50 steps of power iteration.  The iteration runs on all points at once
    through the model's O(n) kernel and forms no n x n matrix, so the check
    runs on grids of any size.

    The probes come from the package's SplitMix64 stream at seed 7.  Each
    probe is u = (r/||g||) g, with g uniform on the cube [-1, 1)^n and r
    uniform on [0, 1); its power iteration starts from a second draw uniform
    on [-1, 1)^n.  The shifts are solved as one sweep by decreasing a, as in
    :func:`build_trajectory`.
    """
    model._check(f_delta)
    a_values = np.array(_LARGE_A_SHIFTS)
    base = _data_residual_norms(model, f_delta, np.zeros(model.grid.n))
    m1 = _derivative_norm_bound(model)
    traj = _trajectories(model, [(f_delta, a_values)])[0]
    phis, v_norms = traj.residual_norms, traj.solution_norms
    margins = np.column_stack((base / a_values - v_norms, m1 * v_norms - np.abs(phis - base)))
    return _report("large_a_limit", margins.ravel(), _LARGE_A_TOL)


def find_crossing_time(
    model: OperatorModel,
    f_delta: GridFunction,
    delta: float,
    C: float,
    schedule: ContinuousSchedule,
) -> float:
    """The time t1 where the regularized residual
    phi(t) = ||F(V(a(t))) - f_delta|| equals C*delta.

    phi is continuous and strictly decreasing in t, so a sign change
    bracketed by doubling T (capped at 2**30) pins t1 down.  Inside the
    bracket the Illinois variant of regula falsi (Dowell & Jarratt, BIT
    1971) on phi(t) - C*delta narrows it, with a midpoint wherever the
    secant point leaves the bracket; returns t1 with
    |phi(t1) - C*delta| <= 1e-8 after at most 200 steps.  phi(t) is the norm
    of the data residual the regularized solve returns, on raw arrays.  The
    doubling times t = 0, 1, 2, 4, ... follow the path of solutions in
    consecutive stacks of nine, the first from 0 and each next one from the
    last solution of the one before; each regula falsi step is one solve,
    warm-started from the last.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not C > 1.0:
        raise ValueError(f"C must be > 1, got {C}")
    target = C * delta
    model._check(f_delta)
    start = np.zeros(model.grid.n)
    if _data_residual_norms(model, f_delta, start) <= target:
        raise ValueError("C*delta is not below ||F(0) - f_delta||; no crossing")

    def excess(times, start):
        # the solutions at ``times``, one stack from ``start``, and a reader of
        # phi(t) - C*delta at row k that raises if that row did not converge
        a = schedule.a(times).reshape(-1, 1)
        v, r, res, _, converged = _regularized_rows(
            model, f_delta.values, a, np.tile(start, (len(times), 1))
        )
        values = norms(model.grid, r) - target

        def read(k):
            if not converged[k]:
                _raise_unconverged(f"t={times[k]:g}", res[k])
            return float(values[k])

        return v, read

    # doubling time j is 0 for j = 0 and 2**(j - 1) after it
    count, first, hi = _MAX_DOUBLINGS + 2, 0, None
    while hi is None:
        if first == count:
            raise RuntimeError(f"no crossing found up to T=2**{_MAX_DOUBLINGS}")
        j = np.arange(first, min(first + _DOUBLING_STACK_ROWS, count))
        times = np.where(j > 0, np.ldexp(1.0, j - 1), 0.0)
        v, read = excess(times, start)
        for k, t in enumerate(times.tolist()):
            value = read(k)
            if t == 0.0 and value <= 0:
                raise ValueError("phi(0) <= C*delta; a(0) is not large enough")
            if value < 0:
                hi, e_hi = t, value
                break
            lo, e_lo = t, value
        start, first = v[k], j[-1] + 1
    # e_lo >= 0 > e_hi.  Illinois: an end kept twice running has its excess
    # halved, so the secant point moves past the root towards it.
    kept = 0
    for _ in range(200):
        t = hi - e_hi * (hi - lo) / (e_hi - e_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        v, read = excess(np.array([t]), start)
        value, start = read(0), v[0]
        if abs(value) <= _CROSSING_TOL:
            return t
        if value > 0:
            lo, e_lo = t, value
            if kept > 0:
                e_hi *= 0.5
            kept = 1
        else:
            hi, e_hi = t, value
            if kept < 0:
                e_lo *= 0.5
            kept = -1
    raise RuntimeError("crossing search failed to localize the crossing to tolerance")


def _simpson(fn, upper):
    # node i at i*h and the last at upper, as np.linspace(0, upper,
    # _SIMPSON_PANELS + 1) places them, without its Python overhead
    h = upper / _SIMPSON_PANELS
    s = np.arange(_SIMPSON_PANELS + 1.0) * h
    s[-1] = upper
    f = fn(s)
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


def check_exponential_integral_bound(p: float, b: float, c: float, t_values) -> CheckReport:
    """(p - b/c) * integral_0^t exp(p s)/(s + c)^b ds < exp(p t)/(c + t)^b
    for every t >= 0, by composite Simpson on exp(p s - b log(s + c)) over
    10 000 panels.  p, b, c are positive and finite, ``t_values`` a 1-d
    sequence of finite t >= 0; anything else raises ``ValueError``."""
    if not all(0 < x < math.inf for x in (p, b, c)):
        raise ValueError(f"p, b, c must be positive and finite, got {(p, b, c)}")
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1:
        raise ValueError(f"t_values must be a 1-d sequence, got shape {t_values.shape}")
    if not np.all(np.isfinite(t_values)):
        raise ValueError("t_values must be finite")
    if np.any(t_values < 0):
        raise ValueError("t_values must be nonnegative")
    factor = p - b / c
    margins = []
    for t in t_values:
        rhs = math.exp(p * t) / (c + t) ** b
        if t == 0.0:
            integral = 0.0
        else:
            integral = _simpson(lambda s: np.exp(p * s - b * np.log(s + c)), float(t))
        margins.append(rhs - factor * integral)
    return _report("exp_integral_bound", margins, 0.0)


def check_weighted_integral_bound(
    schedule: ContinuousSchedule,
    t_values,
    traj: Trajectory,
) -> CheckReport:
    """exp(-t/2) * integral_0^t exp(s/2) |a'(s)| ||V(s)|| ds <= a(t) ||V(t)|| / 2
    along a trajectory sampled on t_values for a schedule with c >= 6b.

    The trajectory must be built on a(t_values), densely enough for the
    trapezoid rule (step <= 0.01 * t_max).
    """
    if schedule.c < 6.0 * schedule.b:
        raise ValueError(
            f"schedule needs c >= 6b, got c={schedule.c}, b={schedule.b}"
        )
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1 or t_values.size < 2:
        raise ValueError("t_values must contain at least two points")
    if t_values[0] != 0.0:
        raise ValueError("t_values must start at 0")
    steps = np.diff(t_values)
    if not np.all(steps > 0):
        raise ValueError("t_values must be strictly increasing")
    t_max = float(t_values[-1])
    if steps.max() > 0.01 * t_max * (1.0 + 1e-12):
        raise ValueError("t grid too coarse: need step <= 0.01 * t_max")
    expected_a = schedule.a(t_values)
    if not np.allclose(traj.a_values, expected_a, rtol=1e-12, atol=0.0):
        raise ValueError("trajectory was not built on schedule.a(t_values)")
    psi = traj.solution_norms
    integrand = np.exp(0.5 * t_values) * schedule.adot_abs(t_values) * psi
    increments = 0.5 * steps * (integrand[:-1] + integrand[1:])
    cumulative = np.concatenate(([0.0], np.cumsum(increments)))
    lhs = np.exp(-0.5 * t_values) * cumulative
    rhs = 0.5 * expected_a * psi
    return _report("weighted_integral_bound", rhs - lhs, 0.0)


def check_gronwall_majorant(
    schedule: ContinuousSchedule,
    lam: float,
    c0: float,
    c1: float,
    g0: float,
    t_max: float = 100.0,
    dt: float = 1e-2,
) -> CheckReport:
    """Integrate g' = -g + (c0/a) g^2 + c1 |a'|/a with RK4 and confirm the
    solution stays strictly below a(t)/lam on [0, t_max].

    Preconditions (raised as ``ValueError`` when violated): for all t,
    c0 <= (lam/2)(1 - |a'|/a) and c1 |a'|/a <= (a/(2 lam))(1 - |a'|/a),
    both tightest at t = 0 for this schedule family, and 0 <= g0 with
    lam*g0/a(0) < 1 (a NaN g0 raises);
    and dt divides the finite t_max into round(t_max/dt) >= 1 whole steps,
    to a relative 1e-9, so the last step ends at t_max.

    g is integrated twice, by steps of dt and by steps of dt/2, and the
    margin at t_k = k*dt is a(t_k)/lam - g_fine - |g_fine - g_coarse|: step
    doubling (Hairer, Norsett & Wanner, *Solving Ordinary Differential
    Equations I*, section II.4).  For RK4 the error of g_fine is about
    |g_fine - g_coarse|/15, so subtracting the whole difference is
    conservative.  A NaN margin (g overflowed) counts as -inf.  The check
    holds O(1) floats at any step count.
    """
    if not (lam > 0 and c0 > 0 and c1 > 0):
        raise ValueError(f"lam, c0, c1 must be positive, got {(lam, c0, c1)}")
    if not g0 >= 0:
        raise ValueError(f"g0 must be nonnegative, got {g0}")
    if not (0 < t_max < math.inf and dt > 0):
        raise ValueError(f"t_max must be positive and finite, dt positive, got {(t_max, dt)}")
    d, c, b = schedule.d, schedule.c, schedule.b
    decay = 1.0 - b / c  # 1 - |a'|/a at t=0, the minimum over t >= 0
    if decay <= 0 or c0 > 0.5 * lam * decay:
        raise ValueError(
            f"condition c0 <= (lam/2)(1 - |a'|/a) fails at t=0: "
            f"c0={c0}, bound={0.5 * lam * decay:g}"
        )
    if c1 * b / c > (d / c ** b) / (2.0 * lam) * decay:
        raise ValueError(
            f"condition c1|a'|/a <= (a/(2 lam))(1 - |a'|/a) fails at t=0: "
            f"lhs={c1 * b / c:g}, rhs={(d / c ** b) / (2.0 * lam) * decay:g}"
        )
    a0 = d / c ** b
    if lam * g0 / a0 >= 1.0:
        raise ValueError(f"need lam*g0/a(0) < 1, got {lam * g0 / a0:g}")

    steps = int(round(t_max / dt))
    if steps < 1 or abs(steps * dt - t_max) > 1e-9 * t_max:
        raise ValueError(f"dt={dt:g} does not divide t_max={t_max:g} into whole steps")

    # p and q are evaluated once per distinct stage time of a step, each time
    # rounded as the stages round it: t + dt/4, t + dt/2, t + dt/2 + dt/4,
    # t + dt and t + dt/2 + dt/2 (the last two, and (k + 1)*dt, differ in
    # their last bit at most steps).  a at (k + 1)*dt serves the margin and
    # the next step's start.
    cb = c1 * b
    half = 0.5 * dt
    quarter = 0.5 * half
    coarse_sixth, fine_sixth = dt / 6.0, half / 6.0
    coarse = fine = g0
    a_t = a0
    p0, q0 = c0 / a_t, cb / c
    worst = a_t / lam - g0
    for k in range(steps):
        t = k * dt
        mid = t + half
        x = c + (t + quarter)
        pa, qa = c0 / (d / x ** b), cb / x
        x = c + mid
        pm, qm = c0 / (d / x ** b), cb / x
        x = c + (mid + quarter)
        pb, qb = c0 / (d / x ** b), cb / x
        x = c + (t + dt)
        pe, qe = c0 / (d / x ** b), cb / x
        x = c + (mid + half)
        pf, qf = c0 / (d / x ** b), cb / x
        # Three RK4 steps of g' = -g + p g^2 + q, with p = c0/a and
        # q = c1 |a'|/a = c1 b/(c + t) at each step's start, midpoint and
        # end, written out: one of dt for the coarse solution, two of dt/2
        # for the fine one.  0.5*dt is half and 0.5*half is quarter, so each
        # stage rounds as g + (0.5*h)*k does; p*y*y - y + q rounds as
        # -y + p*y*y + q, since x - y and -y + x are one IEEE operation.
        k1 = p0 * coarse * coarse - coarse + q0
        y = coarse + half * k1
        k2 = pm * y * y - y + qm
        y = coarse + half * k2
        k3 = pm * y * y - y + qm
        y = coarse + dt * k3
        k4 = pe * y * y - y + qe
        coarse = coarse + coarse_sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k1 = p0 * fine * fine - fine + q0
        y = fine + quarter * k1
        k2 = pa * y * y - y + qa
        y = fine + quarter * k2
        k3 = pa * y * y - y + qa
        y = fine + half * k3
        k4 = pm * y * y - y + qm
        fine = fine + fine_sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k1 = pm * fine * fine - fine + qm
        y = fine + quarter * k1
        k2 = pb * y * y - y + qb
        y = fine + quarter * k2
        k3 = pb * y * y - y + qb
        y = fine + half * k3
        k4 = pf * y * y - y + qf
        fine = fine + fine_sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = c + (k + 1) * dt
        a_t = d / x ** b
        p0, q0 = c0 / a_t, cb / x
        margin = a_t / lam - fine - abs(fine - coarse)
        if not margin >= worst:
            worst = -math.inf if math.isnan(margin) else margin
    return CheckReport(
        name="gronwall_majorant",
        passed=bool(worst > 0.0),
        worst_margin=float(worst),
        samples=steps + 1,
        tolerance=0.0,
    )


def gronwall_recipe(c0: float = 1.0, c1: float = 1.0, b: float = 1.0, c: float = 7.0):
    """Constructive parameters (schedule, lam, g0) that satisfy every
    precondition of :func:`check_gronwall_majorant` for given c0, c1."""
    lam = 4.0 * c0 / (1.0 - b / c)
    d = 4.0 * b * lam * c1
    schedule = ContinuousSchedule(d=d, c=c, b=b)
    g0 = schedule.a(0.0) / (2.0 * lam)
    return schedule, lam, g0


def run_lemma_suite(kinds=("identity", "arctan3", "cubic")) -> list:
    """Run every check against each model kind on a 100-point grid, with 1%
    sine noise on the step solution's data and a sweep of 20 shifts a from 10
    down to 1e-4, plus the model-independent scalar checks, and return the
    reports (names prefixed by model kind)."""
    sweep = np.logspace(1.0, -4.0, 20)
    reports = []
    for kind in kinds:
        grid = QuadratureGrid(100)
        model = OperatorModel(kind, grid)
        u_exact = exact_solution("step", grid)
        f = model.apply(u_exact)
        noise = sine_noise(grid)
        f_delta, delta = calibrate_noise(f, noise, 0.01)

        crossing_schedule = ContinuousSchedule(d=1.0, c=7.0, b=1.0)
        t_grid = np.linspace(0.0, 50.0, 101)
        traj, traj_exact, traj_t = _trajectories(model, [
            (f_delta, sweep), (f, sweep), (f_delta, crossing_schedule.a(t_grid)),
        ])

        t1 = find_crossing_time(model, f_delta, delta, 1.01, crossing_schedule)
        report = solve_regularized(model, f_delta, float(crossing_schedule.a(t1)))
        gap = abs(_data_residual_norms(model, f_delta, report.solution.values) - 1.01 * delta)
        for r in (
            check_monotonicity(traj),
            check_perturbation_bounds(traj, traj_exact, u_exact, norm(f_delta - f)),
            check_large_a_limit(model, f_delta),
            CheckReport(
                name="discrepancy_crossing",
                passed=bool(gap <= _CROSSING_TOL),
                worst_margin=float(_CROSSING_TOL - gap),
                samples=1,
                tolerance=0.0,
            ),
            check_weighted_integral_bound(crossing_schedule, t_grid, traj_t),
        ):
            r.name = f"{kind}:{r.name}"
            reports.append(r)

    # candidate k is draws 8k..8k+7 of seed 2024: p, b, c, then five t
    # values; the first 20 with p > b/c are checked, as one report
    margins, checked, start = [], 0, 0
    while checked < 20:
        u = _uniforms(2024, np.arange(start, start + 8, dtype=np.uint64))
        start += 8
        p, b, c = 0.2 + 1.3 * u[0], 0.3 + 1.7 * u[1], 0.5 + 7.5 * u[2]
        if p - b / c <= 0:
            continue
        t_values = np.sort(15.0 * u[3:])
        margins += check_exponential_integral_bound(p, b, c, t_values).details
        checked += 1
    reports.append(_report("exp_integral_bound", margins, 0.0))

    schedule, lam, g0 = gronwall_recipe()
    reports.append(check_gronwall_majorant(schedule, lam, 1.0, 1.0, g0))
    return reports


def reports_to_csv(reports, path):
    lines = ["name,passed,worst_margin,samples"]
    for r in reports:
        lines.append(f"{r.name},{str(r.passed).lower()},{r.worst_margin:.6g},{r.samples}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def format_reports(reports) -> str:
    rows = [("name", "passed", "worst_margin", "samples")]
    for r in reports:
        rows.append((r.name, str(r.passed).lower(), f"{r.worst_margin:.6g}", str(r.samples)))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    out = []
    for k, row in enumerate(rows):
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if k == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)
