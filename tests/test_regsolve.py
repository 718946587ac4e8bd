"""Shifted linear solves and the regularized Newton solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsm import regsolve
from dsm.driver import DiscreteSchedule, run_iteration
from dsm.hilbert import GridFunction, GridMismatchError, QuadratureGrid, norm
from dsm.operators import MODEL_KINDS, OperatorModel
from dsm.regsolve import (
    _regularized_rows,
    SingularShiftError,
    line_search,
    regularized_residual,
    solve_regularized,
    solve_shifted_linear,
)


@pytest.fixture
def grid():
    return QuadratureGrid(40)


def test_identity_model_divides_by_one_plus_shift(grid):
    # F' = I for the identity model, so the step is rhs / (1 + a) exactly
    model = OperatorModel("identity", grid)
    rhs = GridFunction(grid, np.linspace(-1.0, 1.0, grid.n))
    zero = GridFunction(grid, np.zeros(grid.n))
    for a in (1e-8, 0.3, 2.0, 1e3):
        out = solve_shifted_linear(model, zero, a, rhs)
        np.testing.assert_array_equal(out.values, rhs.values / (1.0 + a))


def test_identity_jacobian_halves(grid):
    model = OperatorModel("identity", grid)
    rhs = GridFunction(grid, np.ones(grid.n))
    out = solve_shifted_linear(model, GridFunction(grid, np.sin(grid.nodes)), 1.0, rhs)
    np.testing.assert_array_equal(out.values, 0.5)


def test_multiply_back(grid):
    # the O(n) solve against the dense diagnostic matrix F'(u) + a*I
    rng = np.random.default_rng(8)
    a = 0.7
    for kind in MODEL_KINDS:
        model = OperatorModel(kind, grid)
        u = GridFunction(grid, rng.standard_normal(grid.n))
        rhs = GridFunction(grid, rng.standard_normal(grid.n))
        w = solve_shifted_linear(model, u, a, rhs)
        back = (model.jacobian(u) + a * np.eye(grid.n)) @ w.values
        assert np.linalg.norm(back - rhs.values) <= 1e-12 * np.linalg.norm(rhs.values), kind


def test_singular_shift_reports_pivot(grid):
    # g'(u) = 3u^2 overflows to inf at the one node holding 1e200
    model = OperatorModel("cubic", grid)
    values = np.zeros(grid.n)
    values[7] = 1e200
    rhs = GridFunction(grid, np.cos(grid.nodes))
    with pytest.raises(SingularShiftError) as err:
        solve_shifted_linear(model, GridFunction(grid, values), 1.0, rhs)
    assert err.value.pivot_index == 7


def test_nonpositive_shift_rejected(grid):
    model = OperatorModel("linear", grid)
    zero = GridFunction(grid, np.zeros(grid.n))
    for a in (0.0, -1.0, float("nan"), math.inf):
        with pytest.raises(ValueError):
            solve_shifted_linear(model, zero, a, zero)


def test_length_mismatch_rejected(grid):
    zero = GridFunction(grid, np.zeros(grid.n))
    other = GridFunction(QuadratureGrid(grid.n + 1), np.zeros(grid.n + 1))
    for kind in MODEL_KINDS:
        model = OperatorModel(kind, grid)
        with pytest.raises(GridMismatchError):
            solve_shifted_linear(model, other, 1.0, zero)
        with pytest.raises(GridMismatchError):
            solve_shifted_linear(model, zero, 1.0, other)


def test_identity_model_solved_in_one_step(grid):
    model = OperatorModel("identity", grid)
    f = GridFunction(grid, np.sin(2.0 * grid.nodes) + 1.5)
    a = 0.25
    report = solve_regularized(model, f, a)
    assert report.converged
    assert report.iterations == 1
    np.testing.assert_allclose(report.solution.values, f.values / (1.0 + a), rtol=1e-14)


@pytest.mark.parametrize("kind", ["arctan3", "cubic"])
@pytest.mark.parametrize("a", [1e-3, 0.1, 10.0])
def test_substitution_residual_at_tolerance(grid, kind, a):
    """The returned solution satisfies F(v) + a v = f to the solver tolerance."""
    model = OperatorModel(kind, grid)
    u_true = GridFunction(grid, 1.0 - grid.nodes)
    f = model.apply(u_true)
    report = solve_regularized(model, f, a)
    assert report.converged
    assert report.residual_norm <= 1e-12
    check = norm(model.apply(report.solution) + a * report.solution - f)
    assert check <= 1e-12


@pytest.mark.parametrize("a", [10.0, 100.0, 1000.0])
def test_large_shift_norm_bound(grid, a):
    # monotone F gives ||v|| <= ||f - F(0)||/a exactly in the weighted norm
    model = OperatorModel("arctan3", grid)
    f = GridFunction(grid, np.exp(-grid.nodes))
    report = solve_regularized(model, f, a)
    bound = norm(f - model.apply(GridFunction(grid, np.zeros(grid.n)))) / a
    assert norm(report.solution) <= bound + 1e-11


def test_unique_solution_independent_of_start(grid):
    model = OperatorModel("cubic", grid)
    f = GridFunction(grid, 1.0 + 0.5 * np.sin(3.0 * grid.nodes))
    a = 0.05
    from_zero = solve_regularized(model, f, a)
    from_f, _, _, converged = _stacked(model, f, [a], start=f.values)
    assert from_zero.converged and converged[0]
    assert norm(from_zero.solution - GridFunction(grid, from_f[0])) <= 1e-8


def test_solution_norm_grows_as_shift_decreases(grid):
    model = OperatorModel("arctan3", grid)
    f = GridFunction(grid, 1.0 + grid.nodes * (1.0 - grid.nodes))
    norms = []
    start = None
    for a in np.logspace(1.0, -4.0, 12):
        solutions, _, _, converged = _stacked(model, f, [a], start=start)
        assert converged[0]
        start = solutions[0]
        norms.append(norm(GridFunction(grid, start)))
    diffs = np.diff(norms)
    assert np.all(diffs > 0.0)


def test_iteration_cap_reports_not_converged(grid, monkeypatch):
    monkeypatch.setattr(regsolve, "_MAX_ITER", 1)
    model = OperatorModel("cubic", grid)
    f = GridFunction(grid, 1.0 + grid.nodes)
    report = solve_regularized(model, f, 1e-3)
    assert not report.converged
    assert report.residual_norm > 1e-12


def test_unevaluable_start_rejected(grid):
    # cubing 1e110 overflows float64; the Newton loop must refuse the start point
    model = OperatorModel("cubic", grid)
    f = GridFunction(grid, 1.0 + grid.nodes)
    huge = GridFunction(grid, np.full(grid.n, 1e110))
    with pytest.raises(ValueError, match="cannot evaluate the model at the start point"):
        run_iteration(model, f, 0.01, DiscreteSchedule(1.0, 0.01, 0.9, 1), u0=huge)


def test_nonpositive_a_rejected(grid):
    model = OperatorModel("identity", grid)
    for a in (0.0, math.inf):
        with pytest.raises(ValueError):
            solve_regularized(model, GridFunction(grid, np.zeros(grid.n)), a)


def test_grid_mismatch_rejected():
    model = OperatorModel("identity", QuadratureGrid(10))
    with pytest.raises(ValueError):
        solve_regularized(model, GridFunction(QuadratureGrid(11), np.zeros(11)), 1.0)


def test_start_on_other_grid_rejected(grid):
    model = OperatorModel("cubic", grid)
    f = GridFunction(grid, 1.0 + grid.nodes)
    other = GridFunction(QuadratureGrid(grid.n + 1), np.zeros(grid.n + 1))
    with pytest.raises(GridMismatchError):
        run_iteration(model, f, 0.01, DiscreteSchedule(1.0, 0.01, 0.9, 1), u0=other)


_N = 12


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(MODEL_KINDS),
    a=st.floats(1e-4, 10.0),
    data=st.data(),
)
def test_line_search_result_is_consistent(kind, a, data):
    """Whatever the direction s and first step length lam0, the search returns
    for every row a finite iterate, its data residual r = F - f and L; each
    row of a stack gets what it gets alone.  A row that reports acceptance
    took a step length lam = lam0*2^-k with an Armijo decrease at that lam,
    on the norm of G = a*iterate + r (the bits the search tested), and its
    trial is v - lam*s, with L = L v - lam*L s, F that plus g, within
    rounding of the exact F, and r that F minus f, bit for bit.  A row that
    does not stays at v with the r, L v and lam0 it came in with, bit for
    bit.  The direction comes unscaled, as the Newton loop passes it; lam0
    includes run step sizes that are not powers of two (3, 1e-5).  Scale
    1e200 makes every candidate overflow F or the residual."""
    rows = data.draw(st.integers(1, 3))
    v = data.draw(arrays(np.float64, (rows, _N), elements=st.floats(-5.0, 5.0)))
    f_values = data.draw(arrays(np.float64, (rows, _N), elements=st.floats(-5.0, 5.0)))
    direction = data.draw(arrays(np.float64, (rows, _N), elements=st.floats(-100.0, 100.0)))
    scale = data.draw(arrays(np.float64, (rows, 1), elements=st.sampled_from([1.0, 1e3, 1e200])))
    first = st.sampled_from([0.5 ** j for j in range(11)] + [3.0, 1e-5])
    lam0 = data.draw(arrays(np.float64, rows, elements=first))
    direction = direction * scale
    grid = QuadratureGrid(_N)
    model = OperatorModel(kind, grid)
    fv, lv = model._split_values(v)
    rv = fv - f_values
    a = np.full((rows, 1), a)
    _, g_norm = regularized_residual(grid, rv, v, a)
    # the raw kernels leave overflow warnings to the caller, as in the Newton loops
    quiet = dict(over="ignore", invalid="ignore")
    with np.errstate(**quiet):
        ldirection = model._split_values(direction)[1]
        got = line_search(model, v, rv, lv, direction, ldirection, a, f_values, g_norm, lam0)
        new, r_new, l_new, accepted, lam = got
        new_norm = regularized_residual(grid, r_new, new, a)[1]
    for k in range(rows):
        assert np.all(np.isfinite(new[k]))
        if accepted[k]:
            assert lam[k] in [lam0[k] * 0.5 ** j for j in range(41)]
            np.testing.assert_array_equal(new[k], v[k] - lam[k] * direction[k])
            carried = lv[k] - lam[k] * ldirection[k]
            np.testing.assert_array_equal(l_new[k], carried)
            f_new = model._with_g(new[k], carried)
            np.testing.assert_array_equal(r_new[k], f_new - f_values[k])
            bound = 1e-14 * (1.0 + np.abs(lv[k]).max() + np.abs(carried - lv[k]).max())
            assert np.abs(f_new - model.apply_values(new[k])).max() <= bound
            assert new_norm[k] <= (1.0 - 1e-4 * lam[k]) * g_norm[k]
        else:
            assert lam[k] == lam0[k]
            for got_k, came_in in ((new, v), (r_new, rv), (l_new, lv)):
                np.testing.assert_array_equal(got_k[k], came_in[k])
        one = slice(k, k + 1)
        with np.errstate(**quiet):
            alone = line_search(
                model, v[one], rv[one], lv[one], direction[one], ldirection[one], a[one],
                f_values[one], g_norm[one], lam0[one],
            )
        for got_alone, want in zip(alone, got):
            np.testing.assert_array_equal(got_alone[0], want[k])


class _CountingKernel(OperatorModel):
    kernel_calls = 0

    def _kernel_values(self, rows):
        self.kernel_calls += 1
        return super()._kernel_values(rows)


def test_line_search_fails_a_trial_that_does_not_move():
    """A zero step leaves every trial at v, with the norm it came in with.
    At lam0 = 1e-13, 1 - 1e-4*lam rounds to exactly 1, and a test with <=
    would pass that trial; the test is strict, so it fails, from any lam0,
    and the row keeps its inputs."""
    grid = QuadratureGrid(30)
    model = OperatorModel("cubic", grid)
    v = np.tile(0.3 * np.cos(grid.nodes), (3, 1))
    f_values = np.tile(1.0 + grid.nodes, (3, 1))
    a = np.full((3, 1), 1e-2)
    fv, lv = model._split_values(v)
    rv = fv - f_values
    g_norm = regularized_residual(grid, rv, v, a)[1]
    zero = np.zeros_like(v)
    lam0 = np.array([1.0, 1e-13, 1e-300])
    assert 1.0 - 1e-4 * lam0[1] == 1.0
    *stay, accepted, lam = line_search(model, v, rv, lv, zero, zero, a, f_values, g_norm, lam0)
    assert not accepted.any()
    for got_stay, came_in in zip(stay, (v, rv, lv), strict=True):
        np.testing.assert_array_equal(got_stay, came_in)
    np.testing.assert_array_equal(lam, lam0)


@pytest.mark.parametrize("kind", ["arctan3", "cubic", "linear"])
def test_line_search_trials_run_no_running_sums(kind):
    # three rows along their Newton directions (on the cubic model two of
    # them halve, two and three times); no trial runs the kernel's running
    # sums.  Rows sent uphill fail, and stay at v with the r = F - f, L v and
    # lam0 they came in with: no search, failed or not, runs them.  Each
    # search starts at the full step, as the regularized solve's do.
    grid = QuadratureGrid(30)
    model = _CountingKernel(kind, grid)
    v = np.stack([0.3 * np.cos(k * grid.nodes) for k in (1, 2, 3)])
    f_values = np.tile(1.0 + grid.nodes, (3, 1))
    a = np.array([[1e-2], [1e-3], [1.0]])
    fv, lv = model._split_values(v)
    rv = fv - f_values
    g, g_norm = regularized_residual(grid, rv, v, a)
    step, lstep = model._newton_step(v, a, g)
    model.kernel_calls = 0
    full = np.ones(3)
    new, r_new, _, accepted, lam = line_search(
        model, v, rv, lv, step, lstep, a, f_values, g_norm, full
    )
    assert model.kernel_calls == 0 and accepted.all()
    # Armijo at each row's lam, on the norm of G at the iterate the search returns
    new_norm = regularized_residual(grid, r_new, new, a)[1]
    assert np.all(new_norm <= (1.0 - 1e-4 * lam) * g_norm)
    if kind == "cubic":
        assert lam.tolist() == [0.25, 0.125, 1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        *stay, accepted, lam = line_search(
            model, v, rv, lv, -step, -lstep, a, f_values, g_norm, full
        )
    assert model.kernel_calls == 0 and not accepted.any()
    for got_stay, came_in in zip(stay, (v, rv, lv), strict=True):
        np.testing.assert_array_equal(got_stay, came_in)
    np.testing.assert_array_equal(lam, full)

    # Stacks through every exit of the search's trial loop, near the
    # solution of the regularized equation, where G(v - lam*s) is about
    # (1 - lam) G: from lam0 = 6 the trials 6 and 3 fail and 1.5 passes.
    # In the first, row 0 passes at its first trial, row 1 at its third, and
    # row 2, sent uphill, never passes and keeps v, r, L v and lam0 bit for
    # bit.  In the second every row fails its first trial and all pass at
    # the same halving.  In the third the rows pass at three different
    # trials, the last row leaving the stack empty.  Each row is its one-row
    # search, bit for bit.
    a = np.ones((3, 1))
    f_values = model._split_values(v)[0] + a * v
    f_values += 1e-2 * np.stack([np.sin(k * grid.nodes) for k in (1, 2, 3)])
    fv, lv = model._split_values(v)
    rv = fv - f_values
    g, g_norm = regularized_residual(grid, rv, v, a)
    step, lstep = model._newton_step(v, a, g)
    uphill = np.array([[1.0], [1.0], [-1.0]])
    model.kernel_calls = 0
    for lam0, sign, k_pass in (
        (np.array([1.0, 6.0, 1.0]), uphill, [0, 2, None]),
        (np.full(3, 6.0), np.ones((3, 1)), [2, 2, 2]),
        (np.array([1.0, 6.0, 12.0]), np.ones((3, 1)), [0, 2, 3]),
    ):
        direction, ldirection = sign * step, sign * lstep
        with np.errstate(over="ignore", invalid="ignore"):
            got = line_search(model, v, rv, lv, direction, ldirection, a, f_values, g_norm, lam0)
            for row, k in enumerate(k_pass):
                one = slice(row, row + 1)
                alone = line_search(
                    model, v[one], rv[one], lv[one], direction[one], ldirection[one], a[one],
                    f_values[one], g_norm[one], lam0[one],
                )
                for got_alone, want in zip(alone, got, strict=True):
                    np.testing.assert_array_equal(got_alone[0], want[row])
                assert got[3][row] == (k is not None)
                if k is None:
                    for got_stay, came_in in zip(got[:3], (v, rv, lv), strict=True):
                        np.testing.assert_array_equal(got_stay[row], came_in[row])
                    assert got[4][row] == lam0[row]
                else:
                    assert got[4][row] == lam0[row] * 0.5 ** k
        assert model.kernel_calls == 0


def _stacked(model, f, shifts, start=None):
    # every shift's solve, from the node values start (default 0), as one
    # stack of the loop behind solve_regularized: (solutions, norms,
    # iterations, converged)
    first = np.zeros(model.grid.n) if start is None else start
    solutions, _, norms, iterations, converged = _regularized_rows(
        model, f.values, np.array(shifts, dtype=float).reshape(-1, 1),
        np.tile(first, (len(shifts), 1)),
    )
    return solutions, norms, iterations, converged


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(MODEL_KINDS),
    n=st.integers(2, 40),
    shifts=st.lists(st.floats(1e-4, 10.0), min_size=1, max_size=6),
    warm=st.booleans(),
    data=st.data(),
)
def test_rows_match_one_row_solves(kind, n, shifts, warm, data):
    """Every row of a stacked solve, from 0 or warm-started at the data, is
    bit for bit its one-row solve: solution, residual norm, iterations and
    convergence, whichever rows leave the stack before it.  From 0 that is
    solve_regularized."""
    grid = QuadratureGrid(n)
    model = OperatorModel(kind, grid)
    f = GridFunction(grid, data.draw(arrays(np.float64, n, elements=st.floats(-3.0, 3.0))))
    start = f.values if warm else None
    stacked = _stacked(model, f, shifts, start=start)
    assert stacked[0].shape == (len(shifts), n)
    for k, a in enumerate(shifts):
        alone = _stacked(model, f, [a], start=start)
        for got, want in zip(stacked, alone):
            np.testing.assert_array_equal(got[k], want[0])
        if not warm:
            report = solve_regularized(model, f, a)
            assert (report.residual_norm, report.iterations, report.converged) == (
                stacked[1][k], stacked[2][k], stacked[3][k]
            )
            np.testing.assert_array_equal(stacked[0][k], report.solution.values)


def test_capped_row_alone_reports_not_converged(grid, monkeypatch):
    # one Newton step solves the cubic equation to 1e-12 at a large shift
    # (the cubic term of v ~ f/a is below 1e-13), not at a = 1e-2
    monkeypatch.setattr(regsolve, "_MAX_ITER", 1)
    model = OperatorModel("cubic", grid)
    f = GridFunction(grid, 1.0 + grid.nodes)
    shifts = [1e6, 1e-2, 1e5]
    solutions, norms, iterations, converged = _stacked(model, f, shifts)
    assert converged.tolist() == [True, False, True]
    assert iterations.tolist() == [1, 1, 1]
    for k, a in enumerate(shifts):
        alone = solve_regularized(model, f, a)
        np.testing.assert_array_equal(solutions[k], alone.solution.values)
        assert norms[k] == alone.residual_norm
        assert converged[k] == alone.converged


def test_rows_reject_a_bad_shift(grid):
    model = OperatorModel("identity", grid)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            _stacked(model, GridFunction(grid, np.zeros(grid.n)), [1.0, bad])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_failed_armijo_search_stops_with_the_iterate_before_it(grid, kind, monkeypatch):
    # tol = 1e-300 is out of reach: rounding ends the solve, when no step
    # length passes the Armijo test, before the cap of 100 iterations; at
    # which iteration depends on the rounding of the shifted solve
    monkeypatch.setattr(regsolve, "_TOL", 1e-300)
    model = OperatorModel(kind, grid)
    f = GridFunction(grid, 1.0 + grid.nodes)
    report = solve_regularized(model, f, 1e-2)
    assert not report.converged
    iterations = report.iterations
    assert 1 < iterations < regsolve._MAX_ITER == 100
    # the row leaves with the iterate it had before the failed search
    monkeypatch.setattr(regsolve, "_MAX_ITER", iterations - 1)
    capped = solve_regularized(model, f, 1e-2)
    np.testing.assert_array_equal(report.solution.values, capped.solution.values)
    assert report.residual_norm == capped.residual_norm


class _UphillSecondStep(OperatorModel):
    """Turns the Newton loop's second step around, with its image L s, for
    the rows at the shift ``uphill`` (every row by default), so no step
    length of their search passes its Armijo test."""

    solves, uphill = 0, None

    def _newton_step(self, values, a, rhs):
        self.solves += 1
        step, lstep = super()._newton_step(values, a, rhs)
        if self.solves == 2:
            flip = slice(None) if self.uphill is None else a[:, 0] == self.uphill
            step[flip], lstep[flip] = -step[flip], -lstep[flip]
        return step, lstep


@pytest.mark.parametrize("kind", ["arctan3", "cubic"])
def test_rows_return_f_at_their_solutions(grid, kind):
    # the data residual F(v) - f of each row comes from the search trial
    # that made v, or, for a row that leaves at a failed search with the
    # iterate before it, from one evaluation there; either way it is
    # F(v) - f bit for bit, next to the solutions, norms and flags of each
    # row's one-row solve_regularized
    f = GridFunction(grid, 1.0 + grid.nodes)
    shifts = [1e6, 1.0, 1e-2, 1e-4]
    a = np.array(shifts).reshape(-1, 1)
    model = _UphillSecondStep(kind, grid)
    solutions, r_solutions, norms, iterations, converged = _regularized_rows(
        model, f.values, a, np.zeros((len(shifts), grid.n))
    )
    # the shift 1e6 row meets tol in one step; the others leave at the
    # failed second search
    assert converged.tolist() == [True, False, False, False]
    assert iterations.tolist() == [1, 2, 2, 2]
    np.testing.assert_array_equal(r_solutions, model.apply_values(solutions) - f.values)
    for k, a in enumerate(shifts):
        alone = solve_regularized(_UphillSecondStep(kind, grid), f, a)
        np.testing.assert_array_equal(solutions[k], alone.solution.values)
        assert (norms[k], iterations[k], converged[k]) == (
            alone.residual_norm, alone.iterations, alone.converged
        )


@pytest.mark.parametrize("kind", ["arctan3", "cubic"])
def test_rows_leave_by_all_three_exits_as_they_do_alone(grid, kind, monkeypatch):
    # in one stack the shift 1e6 row converges at iteration 1, the 1e-3 row's
    # second search is sent uphill, so it stalls at iteration 2 with iterate
    # 1, and the 1e-2 row (8 or 9 iterations uncapped) reaches the cap of 3;
    # each gets bit for bit what it gets alone, with F - f exact at its
    # solution
    monkeypatch.setattr(regsolve, "_MAX_ITER", 3)
    f = GridFunction(grid, 1.0 + grid.nodes)
    shifts = [1e6, 1e-2, 1e-3]

    def rows(shifts):
        model = _UphillSecondStep(kind, grid)
        model.uphill = 1e-3
        a = np.array(shifts).reshape(-1, 1)
        return _regularized_rows(model, f.values, a, np.zeros((len(shifts), grid.n)))

    stacked = rows(shifts)
    solutions, r_solutions, _, iterations, converged = stacked
    assert converged.tolist() == [True, False, False]
    assert iterations.tolist() == [1, 3, 2]
    plain = OperatorModel(kind, grid)
    np.testing.assert_array_equal(r_solutions, plain.apply_values(solutions) - f.values)
    for k, a in enumerate(shifts):
        for got, want in zip(stacked, rows([a])):
            np.testing.assert_array_equal(got[k], want[0])
    # the stalled row holds its iterate 1, the capped row has gone past it
    monkeypatch.setattr(regsolve, "_MAX_ITER", 1)
    first = _stacked(plain, f, shifts[1:])[0]
    np.testing.assert_array_equal(solutions[2], first[1])
    assert not np.array_equal(solutions[1], first[0])


class _FalseFirstConvergence(OperatorModel):
    """Hands the first Newton step back with its L s off by G(v_1), v_1 =
    v_0 - s: the carried residual at v_1 then reads about 0, below the
    tolerance, which the exact one is not."""

    def __init__(self, kind, grid, f_values, a):
        super().__init__(kind, grid)
        self.plain = OperatorModel(kind, grid)
        self.f_values, self.a = f_values, a
        self.steps = 0

    def _newton_step(self, values, a, rhs):
        step, lstep = super()._newton_step(values, a, rhs)
        self.steps += 1
        if self.steps == 1:
            v1 = values - step
            lstep = lstep + regularized_residual(
                self.grid, self.plain.apply_values(v1) - self.f_values, v1, self.a
            )[0]
        return step, lstep


@pytest.mark.parametrize("kind", ["arctan3", "cubic"])
def test_rows_converge_only_on_an_exact_residual(grid, kind):
    # a row whose carried residual meets tol after one step is evaluated
    # exactly there, runs on from the exact F, and converges: its norm and
    # data residual F - f are the exact ones at its solution.  (The fault
    # also lets the first search accept the full step, so the row takes its
    # own path there.)
    f = GridFunction(grid, 1.0 + grid.nodes)
    a = np.array([[1e-2]])
    model = _FalseFirstConvergence(kind, grid, f.values, a)
    solutions, r_solutions, norms_, iterations, converged = _regularized_rows(
        model, f.values, a, np.zeros((1, grid.n))
    )
    assert converged[0] and iterations[0] > 1
    np.testing.assert_array_equal(r_solutions, model.apply_values(solutions) - f.values)
    exact = regularized_residual(grid, r_solutions, solutions, a)[1]
    assert norms_[0] == exact[0] <= regsolve._TOL


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rows_take_one_data_row_each(grid, kind):
    # a stack (S, n) of data rows gives each row, bit for bit, what it gets
    # in a stack of its own data row alone
    model = OperatorModel(kind, grid)
    data = np.stack([1.0 + k * grid.nodes for k in range(3)])
    a = np.array([[1.0], [1e-2], [1e-3]])
    starts = np.tile(0.1 * grid.nodes, (3, 1))
    stacked = _regularized_rows(model, data, a, starts.copy())
    for k in range(3):
        alone = _regularized_rows(model, data[k], a[k:k + 1], starts[k:k + 1].copy())
        for got, want in zip(stacked, alone):
            np.testing.assert_array_equal(got[k:k + 1], want)


class _SecondSolveSingular(OperatorModel):
    """Raises for the last row of the stack on its second shifted solve."""

    solves = 0

    def _newton_step(self, values, a, rhs):
        self.solves += 1
        if self.solves == 2:
            raise SingularShiftError(5, row=len(values) - 1)
        return super()._newton_step(values, a, rhs)


def test_rows_name_the_singular_shift():
    # the shift 1e6 row meets tol after one step and leaves the stack, so
    # the second solve stacks shifts 1 and 2, and its row 1 is shift 2
    grid = QuadratureGrid(30)
    model = _SecondSolveSingular("cubic", grid)
    f = GridFunction(grid, 1.0 + grid.nodes)
    with pytest.raises(SingularShiftError) as err:
        _stacked(model, f, [1e6, 1e-2, 1e-3])
    assert (err.value.row, err.value.pivot_index) == (2, 5)
