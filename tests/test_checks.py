"""Analytic-fact checks: trajectories, bounds, crossing times, majorants."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dsm import checks, regsolve
from dsm.checks import (
    Trajectory,
    _derivative_norm_bound,
    build_trajectory,
    check_exponential_integral_bound,
    check_gronwall_majorant,
    check_large_a_limit,
    check_monotonicity,
    check_perturbation_bounds,
    check_weighted_integral_bound,
    find_crossing_time,
    format_reports,
    gronwall_recipe,
    reports_to_csv,
    run_lemma_suite,
)
from dsm.driver import ContinuousSchedule
from dsm.harness import _uniforms, calibrate_noise, exact_solution, sine_noise
from dsm.hilbert import GridFunction, GridMismatchError, QuadratureGrid, norm, norms
from dsm.operators import MODEL_KINDS, OperatorModel, SingularShiftError
from dsm.regsolve import ConvergenceError, solve_regularized

SWEEP = np.logspace(0.5, -3.0, 12)


@pytest.fixture(scope="module")
def arctan_traj():
    grid = QuadratureGrid(60)
    model = OperatorModel("arctan3", grid)
    u_star = GridFunction(grid, 1.0 - 0.5 * grid.nodes)
    f = model.apply(u_star)
    pert = GridFunction(grid, np.sin(3.0 * np.pi * grid.nodes))
    f_delta = GridFunction(grid, f.values + 0.01 * pert.values)
    traj = build_trajectory(model, f_delta, SWEEP)
    traj_exact = build_trajectory(model, f, SWEEP)
    return model, u_star, f, f_delta, traj, traj_exact


def test_build_trajectory_validation():
    grid = QuadratureGrid(10)
    model = OperatorModel("identity", grid)
    f = GridFunction(grid, grid.nodes + 1.0)
    with pytest.raises(ValueError):
        build_trajectory(model, f, [])
    with pytest.raises(ValueError):
        build_trajectory(model, f, [1.0, 2.0])  # increasing
    with pytest.raises(ValueError):
        build_trajectory(model, f, [1.0, -0.5])


def test_trajectory_satisfies_regularized_equation(arctan_traj):
    # phi = a * psi is the defining identity F(V) - f_delta = -a V, up to
    # the solver's absolute residual floor (data-scale relative 1e-12)
    model, u_star, f, f_delta, traj, _ = arctan_traj
    scale = max(1.0, norm(f_delta))
    for k, a in enumerate(traj.a_values):
        gap = abs(traj.residual_norms[k] - a * traj.solution_norms[k])
        assert gap <= 1e-12 * scale
        assert traj.eq_residuals[k] <= regsolve._TOL


def test_monotonicity_on_real_trajectory(arctan_traj):
    _, _, _, _, traj, _ = arctan_traj
    report = check_monotonicity(traj)
    assert report.passed
    assert report.worst_margin >= -report.tolerance
    assert report.samples == 2 * (len(SWEEP) - 1)


def test_monotonicity_flags_doctored_trajectory(arctan_traj):
    _, _, _, _, traj, _ = arctan_traj
    bad = Trajectory(
        model=traj.model,
        f_delta=traj.f_delta,
        a_values=traj.a_values,
        solutions=traj.solutions,
        residual_norms=traj.residual_norms[::-1].copy(),  # increasing now
        solution_norms=traj.solution_norms,
        eq_residuals=traj.eq_residuals,
    )
    assert not check_monotonicity(bad).passed


def test_monotonicity_rejects_degenerate_data():
    grid = QuadratureGrid(10)
    model = OperatorModel("cubic", grid)
    zero = GridFunction(grid, np.zeros(grid.n))
    traj = Trajectory(model, zero, np.array([1.0, 0.5]), [zero, zero],
                      np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        check_monotonicity(traj)


def test_perturbation_bounds(arctan_traj):
    model, u_star, f, f_delta, traj, traj_exact = arctan_traj
    delta = norm(f_delta - f)
    report = check_perturbation_bounds(traj, traj_exact, u_star, delta)
    assert report.passed
    assert report.samples == 3 * len(SWEEP)


def test_perturbation_bounds_validation(arctan_traj):
    model, u_star, f, f_delta, traj, traj_exact = arctan_traj
    other = build_trajectory(model, f, SWEEP[:-1])
    with pytest.raises(ValueError):
        check_perturbation_bounds(traj, other, u_star, 0.01)
    with pytest.raises(ValueError):
        check_perturbation_bounds(traj, traj_exact, u_star, 0.0)
    # an exact solution on another grid than the trajectories'
    seven = QuadratureGrid(7)
    coarse = GridFunction(seven, 1.0 - 0.5 * seven.nodes)
    with pytest.raises(GridMismatchError):
        check_perturbation_bounds(traj, traj_exact, coarse, 0.01)


@pytest.mark.parametrize("call", [
    lambda model, f, other: calibrate_noise(f, other, 0.01),
    lambda model, f, other: calibrate_noise(other, f, 0.01),
    lambda model, f, other: check_large_a_limit(model, other),
], ids=["noise", "data", "large_a_limit"])
def test_function_from_another_grid_is_a_grid_mismatch(call):
    grid = QuadratureGrid(30)
    model = OperatorModel("arctan3", grid)
    f = model.apply(exact_solution("step", grid))
    other = sine_noise(QuadratureGrid(40))
    with pytest.raises(GridMismatchError, match=r"QuadratureGrid\(n=40\)"):
        call(model, f, other)


def _monotonicity_reference(traj):
    phi, psi = traj.residual_norms, traj.solution_norms
    margins = []
    for k in range(phi.size - 1):
        margins.append((phi[k] - phi[k + 1]) / max(phi[k], 1e-300))
        margins.append((psi[k + 1] - psi[k]) / max(psi[k + 1], 1e-300))
    return margins


def _perturbation_reference(traj_noisy, traj_exact, exact, delta):
    grid = exact.grid
    y_norm = norm(exact)
    margins = []
    for k, a in enumerate(traj_noisy.a_values):
        v_d = GridFunction(grid, traj_noisy.solutions[k])
        v = GridFunction(grid, traj_exact.solutions[k])
        margins.append(delta / a - norm(v_d - v))
        margins.append(y_norm - norm(v))
        margins.append(y_norm + delta / a - norm(v_d))
    return margins


def _large_a_reference(model, f_delta):
    base = norm(f_delta - model.apply(GridFunction(model.grid, np.zeros(model.grid.n))))
    m1 = _derivative_norm_bound(model)
    margins = []
    for a in (1e2, 1e3, 1e4):
        v = solve_regularized(model, f_delta, a).solution
        phi = norm(model.apply(v) - f_delta)
        margins.append(base / a - norm(v))
        margins.append(m1 * norm(v) - abs(phi - base))
    return margins


def test_stacked_margins_match_per_row_reference(arctan_traj):
    # the checks take their margins a whole stack at a time; each detail,
    # in its interleaved order, is bit for bit that of a loop over the rows
    model, u_star, f, f_delta, traj, traj_exact = arctan_traj
    delta = norm(f_delta - f)
    assert check_monotonicity(traj).details == _monotonicity_reference(traj)
    report = check_perturbation_bounds(traj, traj_exact, u_star, delta)
    assert report.details == _perturbation_reference(traj, traj_exact, u_star, delta)
    assert check_large_a_limit(model, f_delta).details == _large_a_reference(model, f_delta)


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_perturbation_bounds_reject_a_non_finite_delta(delta):
    # the true delta passes and delta = 1e-12 fails, but delta = inf made
    # every bound delta/a infinite and passed with worst margin 8.05e-4
    grid = QuadratureGrid(40)
    model = OperatorModel("arctan3", grid)
    u_exact = exact_solution("step", grid)
    f = model.apply(u_exact)
    f_delta, _ = calibrate_noise(f, sine_noise(grid), 0.05)
    sweep = np.logspace(1.0, -3.0, 8)
    traj, traj_exact = build_trajectory(model, f_delta, sweep), build_trajectory(model, f, sweep)
    assert check_perturbation_bounds(traj, traj_exact, u_exact, norm(f_delta - f)).passed
    assert not check_perturbation_bounds(traj, traj_exact, u_exact, 1e-12).passed
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        check_perturbation_bounds(traj, traj_exact, u_exact, delta)


def test_large_a_limit_identity_closed_form():
    # F = I: V = f/(1+a), so ||V|| = ||f||/(1+a) <= ||f||/a with margin
    # ||f||/(a(1+a)) ... both margins collapse to ~0 only up to rounding
    grid = QuadratureGrid(40)
    model = OperatorModel("identity", grid)
    f = GridFunction(grid, np.cos(grid.nodes) + 1.2)
    report = check_large_a_limit(model, f)
    assert report.passed


def _dense_derivative_norm_bound(model, seed, n_probe=10, power_steps=50):
    """Reference for the derivative-norm bound: power iteration on the dense
    W^(1/2) F'(u) W^(-1/2) of each probe point in turn.  Probe k draws its
    own 2n + 1 counters of the stream, from k(2n + 1) on: the direction and
    the start vector uniform on [-1, 1), then the radius on [0, 1)."""
    grid = model.grid
    n = grid.n
    sqrt_w = np.sqrt(grid.weights)
    m1 = 0.0
    for k in range(n_probe):
        u = _uniforms(seed, np.arange(k * (2 * n + 1), (k + 1) * (2 * n + 1), dtype=np.uint64))
        g = 2.0 * u[:n] - 1.0
        x = 2.0 * u[n:2 * n] - 1.0
        radius = u[2 * n]
        point = GridFunction(grid, (radius / norm(GridFunction(grid, g))) * g)
        s = sqrt_w[:, None] * model.jacobian(point) / sqrt_w[None, :]
        x /= np.linalg.norm(x)
        for _ in range(power_steps):
            y = s.T @ (s @ x)
            x = y / np.linalg.norm(y)
        m1 = max(m1, float(np.linalg.norm(s @ x)))
    return m1


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_derivative_norm_bound_matches_dense_power_iteration(kind):
    model = OperatorModel(kind, QuadratureGrid(100))
    expected = _dense_derivative_norm_bound(model, 7)
    m1 = _derivative_norm_bound(model)
    assert m1 == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_large_a_limit_at_large_n():
    # the dense Jacobians at n = 1e4 would take 800 MB each; the check needs none
    grid = QuadratureGrid(10_000)
    model = OperatorModel("arctan3", grid)
    f = model.apply(exact_solution("step", grid))
    f_delta, _ = calibrate_noise(f, sine_noise(grid), 0.01)
    report = check_large_a_limit(model, f_delta)
    assert report.passed
    assert report.samples == 6
    assert "kernel" not in model.__dict__


def test_find_crossing_time_identity_closed_form():
    """a(t) = 1/(1+t) on F = I gives phi(t) = ||f||/(2+t) exactly, so the
    crossing of C*delta sits at t1 = ||f||/(C delta) - 2."""
    grid = QuadratureGrid(50)
    model = OperatorModel("identity", grid)
    f = GridFunction(grid, 0.9 + 0.1 * np.sin(np.pi * grid.nodes))
    schedule = ContinuousSchedule(d=1.0, c=1.0, b=1.0)
    delta = 0.01
    C = 1.01
    t1 = find_crossing_time(model, f, delta, C, schedule)
    expected = norm(f) / (C * delta) - 2.0
    assert t1 == pytest.approx(expected, abs=1e-3)


def test_find_crossing_time_validation():
    grid = QuadratureGrid(20)
    model = OperatorModel("identity", grid)
    f = GridFunction(grid, grid.nodes + 0.5)
    schedule = ContinuousSchedule(d=1.0, c=1.0, b=1.0)
    with pytest.raises(ValueError):
        find_crossing_time(model, f, 0.0, 1.01, schedule)
    with pytest.raises(ValueError):
        find_crossing_time(model, f, 0.01, 1.0, schedule)
    with pytest.raises(ValueError):
        # C*delta above ||F(0) - f||: nothing to cross
        find_crossing_time(model, f, 10.0, 1.01, schedule)
    with pytest.raises(ValueError, match="C must be > 1 and finite"):
        # an infinite C passed the C > 1 check and then found no crossing
        find_crossing_time(model, f, 0.01, math.inf, schedule)


class _CountingModel(OperatorModel):
    shifted_solves = 0

    # the Newton loop's shifted solve, which also hands back L s
    def _newton_step(self, values, a, rhs):
        self.shifted_solves += 1
        return super()._newton_step(values, a, rhs)


@pytest.mark.parametrize("kind", ["arctan3", "cubic"])
def test_trajectory_is_one_stacked_solve(kind, monkeypatch):
    # the suite's 101-point t-grid: one Newton loop over the whole stack
    # takes as many shifted solves as its slowest row needs (at most 12
    # here); one solve per a would take at least one shifted solve per a.
    # The solutions stay one (S, n) array: no row is wrapped as a GridFunction.
    grid = QuadratureGrid(100)
    model = _CountingModel(kind, grid)
    f = model.apply(exact_solution("step", grid))
    f_delta, _ = calibrate_noise(f, sine_noise(grid), 0.01)
    a_values = ContinuousSchedule(d=1.0, c=7.0, b=1.0).a(np.linspace(0.0, 50.0, 101))
    wraps = []
    wrap = GridFunction.__init__

    def counting_wrap(self, *args, **kwargs):
        wraps.append(1)
        wrap(self, *args, **kwargs)

    monkeypatch.setattr(GridFunction, "__init__", counting_wrap)
    traj = build_trajectory(model, f_delta, a_values)
    assert traj.solutions.shape == (101, 100)
    assert model.shifted_solves <= 25
    assert len(wraps) == 0


def _cold_solves(model, data, a_values):
    # every shift's solve from 0 on ``data``, as one stack of the loop behind
    # solve_regularized, each row bit for bit its one-row solve
    solutions, _, _, _, converged = regsolve._regularized_rows(
        model, data.values, a_values.reshape(-1, 1),
        np.zeros((len(a_values), model.grid.n)),
    )
    return solutions, converged


def _step_data(kind, n):
    # the suite's data: the step solution's image plus 1% sine noise
    grid = QuadratureGrid(n)
    model = OperatorModel(kind, grid)
    f_delta, delta = calibrate_noise(
        model.apply(exact_solution("step", grid)), sine_noise(grid), 0.01
    )
    return model, f_delta, delta


@given(
    kind=st.sampled_from(MODEL_KINDS),
    n=st.integers(min_value=2, max_value=60),
    size=st.integers(min_value=1, max_value=30),
    ends=st.tuples(st.floats(-5.0, 3.0), st.floats(-5.0, 3.0)),
)
@settings(max_examples=60, deadline=None)
@example(kind="cubic", n=60, size=30, ends=(3.0, -5.0))
def test_trajectory_rows_lie_near_their_cold_solves(kind, n, size, ends):
    """A trajectory follows the path of solutions with warm starts; each row
    still meets tol, so by strong monotonicity of F + a I,
    a ||V1 - V2||^2 <= <G(V1) - G(V2), V1 - V2> <= 2 tol ||V1 - V2||, it lies
    within 2 tol/a of the row's own solve from 0."""
    a_values = np.logspace(max(ends), min(ends), size)
    assume(size == 1 or np.all(np.diff(a_values) < 0))
    model, f_delta, _ = _step_data(kind, n)
    cold, converged = _cold_solves(model, f_delta, a_values)
    try:
        traj = build_trajectory(model, f_delta, a_values)
    except ConvergenceError:
        traj = None
    # build_trajectory raises at any row that does not converge
    assert (traj is not None) == bool(converged.all())
    if traj is not None:
        gaps = a_values * norms(model.grid, traj.solutions - cold)
        assert np.all(gaps <= 2.0 * regsolve._TOL)


def test_lemma_suite_follows_the_path_in_few_f_evaluations(monkeypatch):
    # cold-started sweeps, with F evaluated again at every solution, took
    # 5574 F row evaluations; warm-started chunks with F from the solve took
    # 2074, each through the kernel's running sums.  With the line search's
    # trials carried they take 2555, and 977 of them are exact: a row's
    # start and the one where it leaves
    rows = {"all": 0, "exact": 0}
    with_g, split_values = OperatorModel._with_g, OperatorModel._split_values

    def counting(name, method):
        def count(self, values, *rest):
            rows[name] += 1 if np.ndim(values) == 1 else len(values)
            return method(self, values, *rest)
        return count

    monkeypatch.setattr(OperatorModel, "_with_g", counting("all", with_g))
    monkeypatch.setattr(OperatorModel, "_split_values", counting("exact", split_values))
    assert all(r.passed for r in run_lemma_suite())
    assert rows["all"] <= 2600 and rows["exact"] <= 1000


@given(
    kind=st.sampled_from(MODEL_KINDS),
    n=st.integers(min_value=2, max_value=60),
    sweeps=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=1, max_value=30),
            st.tuples(st.floats(-5.0, 3.0), st.floats(-5.0, 3.0)),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
@example(kind="cubic", n=60, sweeps=[(True, 20, (1.0, -4.0)), (False, 20, (1.0, -4.0)),
                                     (True, 30, (-0.85, -1.75))])
def test_path_rows_with_their_own_data_lie_near_their_cold_solves(kind, n, sweeps):
    """Up to three sweeps of one model, each on noisy or exact data, run as
    one path by decreasing a, each row with its own data row.  Every row
    meets tol, so it lies within 2 tol/a of its one-row solve from 0 on its
    own data, and its data residual is taken against that data."""
    model, f_delta, _ = _step_data(kind, n)
    f = model.apply(exact_solution("step", model.grid))
    pairs = []
    for noisy, size, ends in sweeps:
        a_values = np.logspace(max(ends), min(ends), size)
        assume(size == 1 or np.all(np.diff(a_values) < 0))
        pairs.append((f_delta if noisy else f, a_values))
    colds = [_cold_solves(model, data, a_values) for data, a_values in pairs]
    try:
        trajs = checks._trajectories(model, pairs)
    except ConvergenceError:
        trajs = None
    # the path raises at any row that does not converge
    assert (trajs is not None) == all(converged.all() for _, converged in colds)
    if trajs is not None:
        for traj, (data, a_values), cold in zip(trajs, pairs, colds):
            assert traj.f_delta is data and np.array_equal(traj.a_values, a_values)
            gaps = a_values * norms(model.grid, traj.solutions - cold[0])
            assert np.all(gaps <= 2.0 * regsolve._TOL)
            residuals = norms(model.grid, model.apply_values(traj.solutions) - data.values)
            np.testing.assert_allclose(traj.residual_norms, residuals, rtol=1e-12, atol=1e-15)


def _counting_newton_loops(monkeypatch):
    loops = []
    newton_rows = regsolve._newton_rows

    def counting(model, u, *args):
        loops.append(len(u))
        return newton_rows(model, u, *args)

    monkeypatch.setattr(regsolve, "_newton_rows", counting)
    return loops


def test_lemma_suite_runs_few_newton_loops(monkeypatch):
    # three sweeps per model as separate continuations, one-row crossing
    # solves and one-row large-a stacks took 84 loops; one path per model,
    # a stack of doubling times and one large-a stack take 46
    loops = _counting_newton_loops(monkeypatch)
    assert all(r.passed for r in run_lemma_suite())
    assert len(loops) <= 50


@pytest.mark.parametrize("kind", ["identity", "arctan3", "cubic"])
def test_large_a_shifts_are_one_stack(kind, monkeypatch):
    # three large shifts gain nothing from warm starts; they took three
    # one-row loops
    model, f_delta, _ = _step_data(kind, 100)
    loops = _counting_newton_loops(monkeypatch)
    assert check_large_a_limit(model, f_delta).passed
    assert loops == [3]


@pytest.mark.parametrize("kind", ["identity", "arctan3", "cubic"])
def test_crossing_search_runs_few_newton_loops(kind, monkeypatch):
    # one-row solves took 16, 16 and 13 loops; one stack of doubling times
    # and the regula falsi steps take 8, 8 and 6
    model, f_delta, delta = _step_data(kind, 100)
    schedule = ContinuousSchedule(d=1.0, c=7.0, b=1.0)
    loops = _counting_newton_loops(monkeypatch)
    t1 = find_crossing_time(model, f_delta, delta, 1.01, schedule)
    assert len(loops) <= 10
    v = solve_regularized(model, f_delta, float(schedule.a(t1))).solution
    assert abs(norm(model.apply(v) - f_delta) - 1.01 * delta) <= 1e-8


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_find_crossing_time_rejects_a_non_finite_delta(delta):
    # delta = inf raised "C*delta is not below ||F(0) - f_delta||"
    model, f_delta, _ = _step_data("arctan3", 30)
    schedule = ContinuousSchedule(d=1.0, c=7.0, b=1.0)
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        find_crossing_time(model, f_delta, delta, 1.01, schedule)


class _FirstSolveSingular(OperatorModel):
    def _newton_step(self, values, a, rhs):
        raise SingularShiftError(3, row=0)


def test_sweep_names_the_singular_shift():
    # the shifts 1e2, 1e3, 1e4 are solved largest first, so the first stack
    # holds 1e4 alone; the error names that shift's place among them
    grid = QuadratureGrid(20)
    model = _FirstSolveSingular("cubic", grid)
    f = GridFunction(grid, 1.0 + grid.nodes)
    with pytest.raises(SingularShiftError) as err:
        check_large_a_limit(model, f)
    assert (err.value.row, err.value.pivot_index) == (2, 3)


def test_unconverged_solves_raise_and_name_where(monkeypatch):
    # one Newton iteration cannot solve the cubic equation from zero
    monkeypatch.setattr(regsolve, "_MAX_ITER", 1)
    grid = QuadratureGrid(40)
    model = OperatorModel("cubic", grid)
    f = model.apply(exact_solution("step", grid))
    f_delta, delta = calibrate_noise(f, sine_noise(grid), 0.01)
    with pytest.raises(ConvergenceError, match=r"at a=1( |$)"):
        build_trajectory(model, f_delta, [1.0, 0.1])
    schedule = ContinuousSchedule(d=1.0, c=7.0, b=1.0)
    with pytest.raises(ConvergenceError, match=r"at t=0( |$)"):
        find_crossing_time(model, f_delta, delta, 1.01, schedule)


def test_exponential_integral_bound_margins():
    p, b, c = 0.8, 1.0, 3.0
    t_values = np.array([0.0, 0.5, 2.0, 7.0, 15.0])
    report = check_exponential_integral_bound(p, b, c, t_values)
    assert report.passed
    # the margin grows from 1/c^b at t = 0, so that is a floor
    assert report.worst_margin >= 0.99 / c ** b
    assert report.samples == len(t_values)
    # at t = 0 the Simpson integral is exactly 0.0
    assert report.details[0] == 1.0 / c ** b


def test_exponential_integral_bound_validation():
    with pytest.raises(ValueError):
        check_exponential_integral_bound(0.0, 1.0, 1.0, [1.0])
    with pytest.raises(ValueError):
        check_exponential_integral_bound(1.0, 1.0, 1.0, [-1.0])


@pytest.mark.parametrize(
    "args", [(math.inf, 1.0, 3.0), (0.8, math.inf, 3.0), (0.8, 1.0, math.inf)]
)
def test_exponential_integral_bound_rejects_non_finite_parameters(args):
    # c = inf passed with worst margin 0.0, p = inf failed with worst margin nan
    with pytest.raises(ValueError, match="p, b, c"):
        check_exponential_integral_bound(*args, [0.5, 2.0])


@pytest.mark.parametrize(
    "p, b, c, t_values, match",
    [
        (0.8, 1.0, 3.0, [1.0, math.nan], "t_values"),
        (0.8, 1.0, 3.0, [math.inf], "t_values"),
        (0.8, 1.0, 3.0, [[0.5, 1.0], [2.0, 3.0]], "t_values"),
        (0.8, 1.0, 3.0, 1.0, "t_values"),
        (1.5, 1.0, 3.0, [1000.0], "not finite at t=1000"),
        (1.0, 2.0, 1e-300, [0.0], "not finite at t=0"),
        (1.0, 2.0, 1e-300, [0.5], "not finite at t=0.5"),
    ],
    ids=["t_values0", "t_values1", "t_values2", "1.0", "exp-overflow", "rhs-inf", "sum-inf"],
)
def test_exponential_integral_bound_rejects_bad_t_values(p, b, c, t_values, match):
    # a NaN or inf t gave passed=False with worst_margin nan, and a 2-d
    # t_values a TypeError; exp(p t) past the largest double raised
    # OverflowError, and an infinite right side or Simpson sum passed with
    # worst_margin inf
    with pytest.raises(ValueError, match=match):
        check_exponential_integral_bound(p, b, c, t_values)


def test_a_check_of_nothing_raises():
    # no t values, or a one-point sweep, leave no margin to test; a report
    # of them would pass with worst_margin inf
    with pytest.raises(ValueError, match="no margins"):
        check_exponential_integral_bound(0.9, 1.0, 3.0, [])
    grid = QuadratureGrid(30)
    model = OperatorModel("arctan3", grid)
    f_delta, _ = calibrate_noise(
        model.apply(exact_solution("step", grid)), sine_noise(grid), 0.01
    )
    with pytest.raises(ValueError, match="no margins"):
        check_monotonicity(build_trajectory(model, f_delta, [1.0]))


@pytest.fixture(scope="module")
def identity_time_trajectory():
    grid = QuadratureGrid(30)
    model = OperatorModel("identity", grid)
    f = GridFunction(grid, 1.0 + 0.3 * np.cos(np.pi * grid.nodes))
    schedule = ContinuousSchedule(d=1.0, c=7.0, b=1.0)
    t_values = np.linspace(0.0, 50.0, 101)
    traj = build_trajectory(model, f, schedule.a(t_values))
    return model, f, schedule, t_values, traj


def test_weighted_integral_bound(identity_time_trajectory):
    model, f, schedule, t_values, traj = identity_time_trajectory
    report = check_weighted_integral_bound(schedule, t_values, traj)
    assert report.passed
    assert report.worst_margin > 0.0


def test_weighted_integral_bound_validation(identity_time_trajectory):
    model, f, schedule, t_values, traj = identity_time_trajectory
    with pytest.raises(ValueError):
        # c >= 6b fails
        check_weighted_integral_bound(ContinuousSchedule(1.0, 5.0, 1.0), t_values, traj)
    with pytest.raises(ValueError):
        # grid coarser than 0.01 * t_max
        coarse = np.linspace(0.0, 50.0, 11)
        check_weighted_integral_bound(schedule, coarse, traj)
    with pytest.raises(ValueError):
        check_weighted_integral_bound(schedule, t_values + 1.0, traj)


def test_gronwall_recipe_passes():
    schedule, lam, g0 = gronwall_recipe()
    report = check_gronwall_majorant(schedule, lam, 1.0, 1.0, g0)
    assert report.passed
    assert report.worst_margin > 0.0
    assert report.samples == 10_001


def test_gronwall_precondition_failures():
    schedule, lam, g0 = gronwall_recipe()
    with pytest.raises(ValueError):
        # c0 above (lam/2)(1 - b/c)
        check_gronwall_majorant(schedule, lam, 100.0, 1.0, g0)
    with pytest.raises(ValueError):
        # g0 at a(0)/lam breaks mu(0) g0 < 1
        check_gronwall_majorant(schedule, lam, 1.0, 1.0, schedule.a(0.0) / lam)
    with pytest.raises(ValueError):
        # c1 condition fails for a weak schedule amplitude
        check_gronwall_majorant(ContinuousSchedule(0.1, 7.0, 1.0), lam, 0.01, 1.0, 1e-4)
    with pytest.raises(ValueError):
        check_gronwall_majorant(schedule, lam, 1.0, 1.0, g0, dt=0.0)
    with pytest.raises(ValueError):
        check_gronwall_majorant(schedule, lam, 1.0, 1.0, g0, t_max=math.inf)


def test_gronwall_rejects_a_nan_g0():
    # g0 < 0 and lam*g0/a(0) >= 1 are both False for NaN: the check ran and
    # reported passed=False with worst margin -inf
    schedule, lam, _ = gronwall_recipe()
    with pytest.raises(ValueError, match="g0"):
        check_gronwall_majorant(schedule, lam, 1.0, 1.0, math.nan)


def test_gronwall_rejects_dt_that_does_not_divide_t_max():
    schedule, lam, g0 = gronwall_recipe()
    with pytest.raises(ValueError):
        # round(1/5) = 0 steps would check t = 0 alone
        check_gronwall_majorant(schedule, lam, 1.0, 1.0, g0, t_max=1.0, dt=5.0)
    with pytest.raises(ValueError):
        # 333 steps of 0.3 stop at t = 99.9
        check_gronwall_majorant(schedule, lam, 1.0, 1.0, g0, t_max=100.0, dt=0.3)


def _gronwall_reference(schedule, lam, c0, c1, g0, t_max, dt, doubling=True):
    """Reference for the Gronwall check: RK4 step by step, with one call of
    the right-hand side per stage, by steps of dt and, when ``doubling``, by
    steps of dt/2 too, whose difference at t_k = k*dt is subtracted from the
    margin; returns (worst_margin, passed, samples)."""
    d, c, b = schedule.d, schedule.c, schedule.b

    def rhs(t, g):
        a = d / (c + t) ** b
        return -g + (c0 / a) * g * g + c1 * b / (c + t)

    def step(t, g, h):
        k1 = rhs(t, g)
        k2 = rhs(t + 0.5 * h, g + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, g + 0.5 * h * k2)
        k4 = rhs(t + h, g + h * k3)
        return g + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    steps = int(round(t_max / dt))
    coarse = fine = g0
    worst = d / c ** b / lam - g0
    for k in range(steps):
        t = k * dt
        coarse = step(t, coarse, dt)
        bound = d / (c + (k + 1) * dt) ** b / lam
        if doubling:
            fine = step(t, fine, dt / 2)
            fine = step(t + dt / 2, fine, dt / 2)
            margin = bound - fine - abs(fine - coarse)
        else:
            margin = bound - coarse
        if margin < worst:
            worst = margin
    return worst, worst > 0.0, steps + 1


@pytest.mark.parametrize(
    "b, t_max, dt",
    [
        (1.0, 100.0, 1e-2),  # the recipe at the default step
        (1.0, 100.0, 1e-3),
        (1.0, 10.0, 0.25),
        (1.0, 1.024, 1e-3),
        (1.0, 1.025, 1e-3),
        (1.0, 3.3, 1e-3),
        (0.7, 100.0, 1e-2),
        (0.7, 100.0, 1e-3),
        (0.7, 10.0, 0.25),
    ],
)
def test_gronwall_matches_step_by_step_reference(b, t_max, dt):
    schedule, lam, g0 = gronwall_recipe(b=b)
    report = check_gronwall_majorant(schedule, lam, 1.0, 1.0, g0, t_max=t_max, dt=dt)
    worst, passed, samples = _gronwall_reference(schedule, lam, 1.0, 1.0, g0, t_max, dt)
    assert report.worst_margin == worst  # bit for bit
    assert report.passed == passed
    assert report.samples == samples


@pytest.mark.parametrize("b", [1.0, 0.7])
def test_gronwall_default_step_agrees_with_fine_plain_rk4(b):
    # dt = 1e-2 with its step-doubling estimate against plain RK4 at 1e-3
    schedule, lam, g0 = gronwall_recipe(b=b)
    report = check_gronwall_majorant(schedule, lam, 1.0, 1.0, g0)
    worst, _, _ = _gronwall_reference(
        schedule, lam, 1.0, 1.0, g0, 100.0, 1e-3, doubling=False
    )
    assert report.passed
    assert abs(report.worst_margin - worst) <= 1e-12


def test_gronwall_subtracts_the_step_doubling_estimate():
    # at dt = 1 the dt/2 solution alone would report the plain dt/2 margin
    # (or a larger one, sampled at every other point); the estimate
    # |g_fine - g_coarse| pulls the reported margin below it
    schedule, lam, g0 = gronwall_recipe()
    report = check_gronwall_majorant(schedule, lam, 1.0, 1.0, g0, t_max=100.0, dt=1.0)
    plain, _, _ = _gronwall_reference(
        schedule, lam, 1.0, 1.0, g0, 100.0, 0.5, doubling=False
    )
    assert report.samples == 101
    assert report.worst_margin < plain


def test_gronwall_nan_margin_counts_as_minus_inf():
    # at dt = 5 the dt-step solution overflows and turns NaN on its fourth
    # step while the dt/2 one stays finite; that NaN margin must count as
    # -inf, not be skipped as a minimum
    schedule, lam, g0 = gronwall_recipe()
    report = check_gronwall_majorant(schedule, lam, 1.0, 1.0, g0, t_max=100.0, dt=5.0)
    assert report.worst_margin == -math.inf
    assert not report.passed


def test_gronwall_memory_does_not_grow_with_steps():
    schedule, lam, g0 = gronwall_recipe()
    peaks = []
    for t_max in (2.048, 8.192):  # 2048 and 8192 steps
        tracemalloc.start()
        try:
            check_gronwall_majorant(schedule, lam, 1.0, 1.0, g0, t_max=t_max, dt=1e-3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # keeping every step's g would add 6144 floats, about 200 kB
    assert peaks[1] <= peaks[0] + 16_000


def test_every_margin_report_is_built_from_its_margins():
    # every report but the Gronwall one, which keeps O(1) floats, lists its
    # margins in details
    for r in run_lemma_suite():
        if r.name != "gronwall_majorant":
            assert r.worst_margin == min(r.details), r.name
            assert r.samples == len(r.details), r.name


def test_default_suite_passes():
    reports = run_lemma_suite()
    checks = ("monotonicity", "perturbation_bounds", "large_a_limit",
              "discrepancy_crossing", "weighted_integral_bound")
    assert [r.name for r in reports] == [
        f"{kind}:{check}" for kind in ("identity", "arctan3", "cubic") for check in checks
    ] + ["exp_integral_bound", "gronwall_majorant"]
    assert all(r.passed for r in reports)
    assert reports[-1].samples == 10_001


def _loads(module, code):
    # whether a fresh interpreter that runs ``code`` has imported ``module``
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    code += f"\nimport sys\nprint({module!r} in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


def test_lemma_suite_imports_no_numpy_random():
    # every draw comes from dsm's own stream; numpy.random costs about 6 MB
    # of resident memory and 10 ms of start-up to import
    if _loads("numpy.random", "import numpy"):
        pytest.skip("this numpy loads numpy.random on import")
    assert not _loads("numpy.random", "import dsm.checks\ndsm.checks.run_lemma_suite()")


def test_run_path_never_loads_the_checks():
    # the checks are verify-lemmas' alone; a run and its imports skip them
    assert not _loads("dsm.checks", "import dsm.harness")
    run = ["run", "--preset", "exp2-const", "--delta-rel", "0.03", "--seeds", "1"]
    assert not _loads("dsm.checks", f"import dsm.cli\nassert dsm.cli.main({run!r}) == 0")


def test_suite_and_report_serialization(tmp_path):
    reports = run_lemma_suite(kinds=("identity",))
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert "identity:monotonicity" in names
    assert "exp_integral_bound" in names
    assert "gronwall_majorant" in names

    path = tmp_path / "reports.csv"
    reports_to_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "name,passed,worst_margin,samples"
    assert len(lines) == len(reports) + 1
    # the cells of the harness's CSV: lower-case booleans, .6g floats
    first = reports[0]
    assert lines[1].split(",") == [
        first.name, "true", f"{first.worst_margin:.6g}", str(first.samples)
    ]
    assert lines[1].split(",")[3].isdigit()

    table = format_reports(reports)
    assert "worst_margin" in table
    assert "identity:monotonicity" in table
