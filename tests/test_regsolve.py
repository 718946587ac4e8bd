"""Shifted linear solves and the regularized Newton solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsm.hilbert import GridFunction, GridMismatchError, QuadratureGrid, norm
from dsm.operators import MODEL_KINDS, OperatorModel
from dsm.regsolve import (
    NewtonOptions,
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
    for a in (1e-8, 0.3, 2.0, 1e3):
        out = solve_shifted_linear(model, grid.zero(), a, rhs)
        np.testing.assert_array_equal(out.values, rhs.values / (1.0 + a))


def test_identity_jacobian_halves(grid):
    model = OperatorModel("identity", grid)
    rhs = GridFunction(grid, np.ones(grid.n))
    out = solve_shifted_linear(model, grid.sample(np.sin), 1.0, rhs)
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
    with pytest.raises(SingularShiftError) as err:
        solve_shifted_linear(model, GridFunction(grid, values), 1.0, grid.sample(np.cos))
    assert err.value.pivot_index == 7


def test_nonpositive_shift_rejected(grid):
    model = OperatorModel("linear", grid)
    for a in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            solve_shifted_linear(model, grid.zero(), a, grid.zero())


def test_length_mismatch_rejected(grid):
    other = QuadratureGrid(grid.n + 1).zero()
    for kind in MODEL_KINDS:
        model = OperatorModel(kind, grid)
        with pytest.raises(GridMismatchError):
            solve_shifted_linear(model, other, 1.0, grid.zero())
        with pytest.raises(GridMismatchError):
            solve_shifted_linear(model, grid.zero(), 1.0, other)


def test_newton_options_validation():
    with pytest.raises(ValueError):
        NewtonOptions(tol=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(max_iter=0)


def test_identity_model_solved_in_one_step(grid):
    model = OperatorModel("identity", grid)
    f = grid.sample(lambda x: np.sin(2.0 * x) + 1.5)
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
    u_true = grid.sample(lambda x: 1.0 - x)
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
    f = grid.sample(lambda x: np.exp(-x))
    report = solve_regularized(model, f, a)
    bound = norm(f - model.apply(grid.zero())) / a
    assert norm(report.solution) <= bound + 1e-11


def test_unique_solution_independent_of_start(grid):
    model = OperatorModel("cubic", grid)
    f = grid.sample(lambda x: 1.0 + 0.5 * np.sin(3.0 * x))
    a = 0.05
    from_zero = solve_regularized(model, f, a)
    from_f = solve_regularized(model, f, a, start=f)
    assert from_zero.converged and from_f.converged
    assert norm(from_zero.solution - from_f.solution) <= 1e-8


def test_solution_norm_grows_as_shift_decreases(grid):
    model = OperatorModel("arctan3", grid)
    f = grid.sample(lambda x: 1.0 + x * (1.0 - x))
    norms = []
    start = None
    for a in np.logspace(1.0, -4.0, 12):
        report = solve_regularized(model, f, float(a), start=start)
        assert report.converged
        start = report.solution
        norms.append(norm(report.solution))
    diffs = np.diff(norms)
    assert np.all(diffs > 0.0)


def test_iteration_cap_reports_not_converged(grid):
    model = OperatorModel("cubic", grid)
    f = grid.sample(lambda x: 1.0 + x)
    report = solve_regularized(model, f, 1e-3, NewtonOptions(max_iter=1))
    assert not report.converged
    assert report.residual_norm > 1e-12


def test_unevaluable_start_rejected(grid):
    # cubing 1e110 overflows float64; the solver must refuse the start point
    model = OperatorModel("cubic", grid)
    f = grid.sample(lambda x: 1.0 + x)
    huge = GridFunction(grid, np.full(grid.n, 1e110))
    with pytest.raises(ValueError):
        solve_regularized(model, f, 1.0, start=huge)


def test_nonpositive_a_rejected(grid):
    model = OperatorModel("identity", grid)
    with pytest.raises(ValueError):
        solve_regularized(model, grid.zero(), 0.0)


def test_grid_mismatch_rejected():
    model = OperatorModel("identity", QuadratureGrid(10))
    with pytest.raises(ValueError):
        solve_regularized(model, QuadratureGrid(11).zero(), 1.0)


def test_start_on_other_grid_rejected(grid):
    model = OperatorModel("cubic", grid)
    f = grid.sample(lambda x: 1.0 + x)
    with pytest.raises(GridMismatchError):
        solve_regularized(model, f, 1.0, start=QuadratureGrid(grid.n + 1).zero())


_N = 12


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(MODEL_KINDS),
    a=st.floats(1e-4, 10.0),
    data=st.data(),
)
def test_line_search_result_is_consistent(kind, a, data):
    """Whatever the direction, the search returns for every row a finite
    iterate, the model's own F there, its regularized residual and norm, and an
    Armijo decrease whenever it reports acceptance; each row of a stack gets
    what it gets alone.  Scale 1e200 makes every candidate overflow F or the
    residual."""
    rows = data.draw(st.integers(1, 3))
    v = data.draw(arrays(np.float64, (rows, _N), elements=st.floats(-5.0, 5.0)))
    f_values = data.draw(arrays(np.float64, (rows, _N), elements=st.floats(-5.0, 5.0)))
    direction = data.draw(arrays(np.float64, (rows, _N), elements=st.floats(-100.0, 100.0)))
    scale = data.draw(arrays(np.float64, (rows, 1), elements=st.sampled_from([1.0, 1e3, 1e200])))
    direction = direction * scale
    grid = QuadratureGrid(_N)
    model = OperatorModel(kind, grid)
    fv = model.apply_values(v)
    a = np.full((rows, 1), a)
    _, g_norm = regularized_residual(grid, fv, v, a, f_values)
    # the raw kernels leave overflow warnings to the caller, as in the Newton loops
    quiet = dict(over="ignore", invalid="ignore")
    with np.errstate(**quiet):
        new, f_new, g_new, new_norm, accepted = line_search(
            model, v, fv, direction, a, f_values, g_norm
        )
    for k in range(rows):
        assert np.all(np.isfinite(new[k]))
        np.testing.assert_array_equal(f_new[k], model.apply(GridFunction(grid, new[k])).values)
        g, norm_k = regularized_residual(grid, f_new[k], new[k], a[k], f_values[k])
        np.testing.assert_array_equal(g_new[k], g)
        assert new_norm[k] == norm_k
        if accepted[k]:
            lams = [0.5 ** j for j in range(41)
                    if np.array_equal(new[k], v[k] - 0.5 ** j * direction[k])]
            assert any(new_norm[k] <= (1.0 - 1e-4 * lam) * g_norm[k] for lam in lams)
        one = slice(k, k + 1)
        with np.errstate(**quiet):
            alone = line_search(
                model, v[one], fv[one], direction[one], a[one], f_values[one], g_norm[one]
            )
        for got, want in zip(alone, (new, f_new, g_new, new_norm, accepted)):
            np.testing.assert_array_equal(got[0], want[k])
