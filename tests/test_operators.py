"""Operator models: kernel discretization, monotonicity, Jacobians, the O(n)
apply and shifted solve, and the direct load of LAPACK dpttrf/dpttrs."""

import importlib.machinery
import importlib.metadata
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dsm.operators
from dsm.hilbert import GridFunction, GridMismatchError, QuadratureGrid, inner, norm
from dsm.operators import (
    _UNREFINED_MAX_N,
    MODEL_KINDS,
    OperatorModel,
    SingularShiftError,
    matvec,
)
from dsm.regsolve import solve_shifted_linear


def kernel_image_of_one(x):
    # closed form of int_0^1 exp(-|x-y|) dy
    return 2.0 - np.exp(-x) - np.exp(x - 1.0)


@pytest.mark.parametrize("n", [30, 100, 300])
def test_kernel_closed_form_on_constant(n):
    # trapezoid error for this kernel stays below 5/n^2 at every node
    grid = QuadratureGrid(n)
    model = OperatorModel("linear", grid)
    one = GridFunction(grid, np.ones(n))
    image = model.apply_kernel(one)
    exact = kernel_image_of_one(grid.nodes)
    assert np.max(np.abs(image.values - exact)) <= 5.0 / n ** 2


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        OperatorModel("quartic", QuadratureGrid(10))


def test_apply_rejects_wrong_grid():
    model = OperatorModel("cubic", QuadratureGrid(10))
    with pytest.raises(GridMismatchError):
        model.apply(GridFunction(QuadratureGrid(11), np.zeros(11)))


def test_identity_is_identity():
    grid = QuadratureGrid(17)
    model = OperatorModel("identity", grid)
    u = GridFunction(grid, np.cos(grid.nodes))
    np.testing.assert_array_equal(model.apply(u).values, u.values)
    np.testing.assert_array_equal(model.jacobian(u), np.eye(17))


def test_linear_drops_nonlinearity():
    grid = QuadratureGrid(23)
    lin = OperatorModel("linear", grid)
    u = GridFunction(grid, grid.nodes - 0.3)
    np.testing.assert_array_equal(lin.apply(u).values, lin.apply_kernel(u).values)


def test_arctan3_and_cubic_reduce_to_linear_at_zero():
    grid = QuadratureGrid(12)
    zero = GridFunction(grid, np.zeros(grid.n))
    for kind in ("arctan3", "cubic"):
        model = OperatorModel(kind, grid)
        np.testing.assert_allclose(model.apply(zero).values, 0.0, atol=1e-15)
        # g'(0) = 0 for both nonlinearities, so F'(0) is the kernel matrix,
        # the linear model's Jacobian
        kernel = OperatorModel("linear", grid).jacobian(zero)
        np.testing.assert_array_equal(model.jacobian(zero), kernel)


def test_kernel_matrix_symmetric_in_weighted_inner_product():
    # K = E*W with E symmetric, so <Ku, v> = <u, Kv> in the weighted product
    grid = QuadratureGrid(40)
    model = OperatorModel("linear", grid)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = GridFunction(grid, rng.standard_normal(grid.n))
        v = GridFunction(grid, rng.standard_normal(grid.n))
        lhs = inner(model.apply_kernel(u), v)
        rhs = inner(u, model.apply_kernel(v))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_kernel_positive_semidefinite():
    grid = QuadratureGrid(60)
    model = OperatorModel("linear", grid)
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = GridFunction(grid, rng.standard_normal(grid.n))
        assert inner(model.apply_kernel(u), u) >= -1e-12


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_monotonicity_of_F(kind):
    # <F(u)-F(v), u-v> >= 0: kernel part is PSD, pointwise part has g' >= 0
    grid = QuadratureGrid(50)
    model = OperatorModel(kind, grid)
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = GridFunction(grid, 3.0 * rng.standard_normal(grid.n))
        v = GridFunction(grid, 3.0 * rng.standard_normal(grid.n))
        gap = inner(model.apply(u) - model.apply(v), u - v)
        assert gap >= -1e-10


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_jacobian_psd_in_weighted_inner_product(kind):
    grid = QuadratureGrid(35)
    model = OperatorModel(kind, grid)
    rng = np.random.default_rng(12)
    point = GridFunction(grid, rng.standard_normal(grid.n))
    jac = model.jacobian(point)
    for _ in range(30):
        w = GridFunction(grid, rng.standard_normal(grid.n))
        assert inner(matvec(jac, w), w) >= -1e-12


@pytest.mark.parametrize("kind", ["arctan3", "cubic", "linear"])
def test_jacobian_matches_finite_differences(kind):
    """Directional finite differences agree with the assembled Jacobian."""
    grid = QuadratureGrid(80)
    model = OperatorModel(kind, grid)
    rng = np.random.default_rng(21)
    eps = 1e-6
    u = GridFunction(grid, rng.standard_normal(grid.n))
    jac = model.jacobian(u)
    for _ in range(10):
        # small directions keep the second-order remainder well below the bound
        w = GridFunction(grid, 0.05 * rng.standard_normal(grid.n))
        fd = (1.0 / eps) * (model.apply(u + eps * w) - model.apply(u))
        jw = matvec(jac, w)
        gap = float(np.linalg.norm(fd.values - jw.values))
        assert gap <= 1e-6 * float(np.linalg.norm(jw.values)) + 1e-8


def test_matvec_shape_check():
    grid = QuadratureGrid(6)
    with pytest.raises(ValueError):
        matvec(np.eye(5), GridFunction(grid, np.zeros(grid.n)))


def test_injectivity_probe():
    # F(u) = F(v) with u != v would break monotone solvability; probe it
    grid = QuadratureGrid(30)
    model = OperatorModel("cubic", grid)
    rng = np.random.default_rng(5)
    u = GridFunction(grid, rng.standard_normal(grid.n))
    v = GridFunction(grid, u.values + 0.1)
    assert norm(model.apply(u) - model.apply(v)) > 1e-4


bounded_values = st.floats(min_value=-5.0, max_value=5.0)


@given(
    arrays(np.float64, st.integers(min_value=2, max_value=30), elements=bounded_values)
)
@settings(max_examples=100, deadline=None)
def test_arctan3_bounded_by_cube_of_half_pi(values):
    grid = QuadratureGrid(len(values))
    model = OperatorModel("arctan3", grid)
    u = GridFunction(grid, values)
    nonlinear_part = model.apply(u) - model.apply_kernel(u)
    assert np.max(np.abs(nonlinear_part.values)) <= (np.pi / 2.0) ** 3


@given(
    arrays(np.float64, st.integers(min_value=2, max_value=30), elements=bounded_values)
)
@settings(max_examples=100, deadline=None)
def test_cubic_nonlinearity_is_odd(values):
    grid = QuadratureGrid(len(values))
    model = OperatorModel("cubic", grid)
    u = GridFunction(grid, values)
    g_u = model.apply(u) - model.apply_kernel(u)
    g_neg = model.apply(-u) - model.apply_kernel(-u)
    np.testing.assert_allclose(g_neg.values, -g_u.values, atol=1e-12)


# the nonlinearities and their derivatives, written out independently of the
# model so the O(n) paths are checked against the definitions
_G = {
    "arctan3": lambda u: np.arctan(u) ** 3,
    "cubic": lambda u: u ** 3,
    "linear": np.zeros_like,
}
_GPRIME = {
    "arctan3": lambda u: 3.0 * np.arctan(u) ** 2 / (1.0 + u * u),
    "cubic": lambda u: 3.0 * u * u,
    "linear": np.zeros_like,
}


def _shifted_operator(model, u, a, s):
    """(F'(u) + a*I) s through the O(n) kernel image."""
    if model.kind == "identity":
        return (1.0 + a) * s.values
    return model.apply_kernel(s).values + (_GPRIME[model.kind](u.values) + a) * s.values


@given(
    kind=st.sampled_from(MODEL_KINDS),
    n=st.integers(min_value=2, max_value=300),
    a=st.floats(min_value=1e-8, max_value=1e2),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_matrix_free_apply_and_shifted_solve(kind, n, a, data):
    """The O(n) apply matches the dense kernel, the O(n) step solves the
    shifted system to rounding level, and repeated solves are bit-identical."""
    grid = QuadratureGrid(n)
    model = OperatorModel(kind, grid)
    draw = arrays(np.float64, n, elements=bounded_values)
    u = GridFunction(grid, data.draw(draw))
    rhs = GridFunction(grid, data.draw(draw))

    if kind == "identity":
        np.testing.assert_array_equal(model.apply(u).values, u.values)
    else:
        kernel = OperatorModel("linear", grid).jacobian(GridFunction(grid, np.zeros(n)))
        dense = kernel @ u.values + _G[kind](u.values)
        scale = np.abs(kernel) @ np.abs(u.values) + np.abs(_G[kind](u.values))
        gap = np.abs(model.apply(u).values - dense)
        assert np.all(gap <= 1e-13 * scale + 1e-300)

    step = solve_shifted_linear(model, u, a, rhs)
    residual = rhs.values - _shifted_operator(model, u, a, step)
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs.values)
    again = solve_shifted_linear(model, u, a, rhs)
    np.testing.assert_array_equal(again.values, step.values)


@given(
    kind=st.sampled_from(MODEL_KINDS),
    n=st.integers(min_value=2, max_value=300),
    a=st.floats(min_value=1e-8, max_value=1e2),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_raw_kernels_match_checked_wrappers(kind, n, a, bad, data):
    """The raw-array kernels the Newton loops call give the checked
    wrappers' values bit for bit; the raw F passes a non-finite input
    through as a non-finite output instead of raising."""
    grid = QuadratureGrid(n)
    model = OperatorModel(kind, grid)
    draw = arrays(np.float64, n, elements=bounded_values)
    u = GridFunction(grid, data.draw(draw))
    rhs = GridFunction(grid, data.draw(draw))

    np.testing.assert_array_equal(model.apply_values(u.values), model.apply(u).values)
    np.testing.assert_array_equal(
        model.solve_shifted_values(u.values, a, rhs.values),
        solve_shifted_linear(model, u, a, rhs).values,
    )

    values = u.values.copy()
    values[data.draw(st.integers(min_value=0, max_value=n - 1))] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        out = model.apply_values(values)
    assert not np.all(np.isfinite(out))


@given(
    kind=st.sampled_from(MODEL_KINDS),
    rows=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=2, max_value=200),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_stacked_kernels_match_rows_alone(kind, rows, n, data):
    """A stack of rows through F and through the shifted solve, with one
    shift per row, gives every row bit for bit what it gives alone: the
    block-diagonal tridiagonal system never couples two rows."""
    model = OperatorModel(kind, QuadratureGrid(n))
    values = data.draw(arrays(np.float64, (rows, n), elements=bounded_values))
    rhs = data.draw(arrays(np.float64, (rows, n), elements=bounded_values))
    shifts = data.draw(arrays(np.float64, (rows, 1), elements=st.floats(1e-8, 1e2)))
    stacked_f = model.apply_values(values)
    stacked_step = model.solve_shifted_values(values, shifts, rhs)
    for k in range(rows):
        np.testing.assert_array_equal(stacked_f[k], model.apply_values(values[k]))
        alone = model.solve_shifted_values(values[k], shifts[k, 0], rhs[k])
        np.testing.assert_array_equal(stacked_step[k], alone)


@pytest.mark.parametrize("kind", ["arctan3", "cubic", "linear"])
def test_refined_rows_match_rows_alone(kind):
    # the hypothesis test above stays below the refinement limit; above it the
    # refinement step, too, must keep every row of a stack to itself
    n = _UNREFINED_MAX_N + 1
    model = OperatorModel(kind, QuadratureGrid(n))
    rng = np.random.default_rng(41)
    values = 3.0 * rng.standard_normal((4, n))
    rhs = rng.standard_normal((4, n))
    shifts = np.array([[1e-8], [1e-4], [1e-2], [1.0]])
    stacked = model.solve_shifted_values(values, shifts, rhs)
    for k in range(4):
        alone = model.solve_shifted_values(values[k], shifts[k, 0], rhs[k])
        np.testing.assert_array_equal(stacked[k], alone)


def _assert_singular_row_is_named(n, row, node):
    # g'(u) = 3u^2 overflows to inf at one node of one row of the stack
    grid = QuadratureGrid(n)
    model = OperatorModel("cubic", grid)
    values = np.zeros((5, grid.n))
    values[row, node] = 1e200
    rhs = np.tile(np.cos(grid.nodes), (5, 1))
    with pytest.raises(SingularShiftError) as err, np.errstate(over="ignore"):
        model.solve_shifted_values(values, np.full((5, 1), 0.5), rhs)
    assert (err.value.row, err.value.pivot_index) == (row, node)
    assert f"index {node} of row {row}" in str(err.value)


@pytest.mark.parametrize("row", [0, 2, 4])
@pytest.mark.parametrize("node", [0, 7, 39])
def test_singular_row_is_named(row, node):
    _assert_singular_row_is_named(40, row, node)


@pytest.mark.parametrize("row, node", [(0, 0), (2, 7), (4, 1000)])
def test_singular_row_is_named_above_the_refinement_limit(row, node):
    _assert_singular_row_is_named(_UNREFINED_MAX_N + 1, row, node)


@pytest.mark.parametrize("n", [_UNREFINED_MAX_N, _UNREFINED_MAX_N + 1])
@pytest.mark.parametrize("kind", ["arctan3", "cubic", "linear"])
def test_shifted_solve_at_the_refinement_limit(kind, n, monkeypatch):
    """On the largest grid without refinement the one tridiagonal solve, and
    on the smallest grid with it the refined step, solve the shifted system
    to a relative residual of 1e-10."""
    # one factorization per step, and one solve with it up to the limit, two
    # (solve, refine) above it
    calls = []

    def counted(name):
        routine = getattr(dsm.operators, name)

        def call(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)

        monkeypatch.setattr(dsm.operators, name, call)

    counted("dpttrf")
    counted("dpttrs")
    grid = QuadratureGrid(n)
    model = OperatorModel(kind, grid)
    rng = np.random.default_rng(37)
    rhs = GridFunction(grid, rng.standard_normal(n))
    for scale in (0.1, 1.0, 3.0):
        u = GridFunction(grid, scale * rng.standard_normal(n))
        for a in (1e-8, 1e-4, 1e-2, 1.0):
            calls.clear()
            step = solve_shifted_linear(model, u, a, rhs)
            solves = 1 if n <= _UNREFINED_MAX_N else 2
            assert calls == ["dpttrf"] + ["dpttrs"] * solves
            residual = rhs.values - _shifted_operator(model, u, a, step)
            assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs.values)


def test_refined_solve_floor_at_tiny_shifts():
    """Near the first-kind limit the refined step misses 1e-10: on the
    linear model at u = 0 and n = 10^4, random right-hand sides leave a
    relative residual of 4.8e-11 to 1.42e-10 at a <= 1e-12, against 4.0e-11
    at a = 1e-8.  The floor is pinned at 5e-10."""
    n = 10 ** 4
    grid = QuadratureGrid(n)
    model = OperatorModel("linear", grid)
    u = GridFunction(grid, np.zeros(n))
    for seed in range(5):
        rhs = GridFunction(grid, np.random.default_rng(seed).standard_normal(n))
        for a in (1e-12, 1e-16, 1e-20):
            step = solve_shifted_linear(model, u, a, rhs)
            residual = rhs.values - _shifted_operator(model, u, a, step)
            assert np.linalg.norm(residual) <= 5e-10 * np.linalg.norm(rhs.values)


@pytest.mark.parametrize("n", [40, _UNREFINED_MAX_N + 1])
@pytest.mark.parametrize("info", [-4, 1, 3, 45])
def test_failed_tridiagonal_solve_always_raises(n, info, monkeypatch):
    # dpttrf reporting a failure on an otherwise finite system still raises:
    # info > 0 names the non-positive pivot (1-based, counted across the
    # stack), and info < 0, an argument it rejects, names node 0 of row 0
    dpttrf = dsm.operators.dpttrf

    def failing_dpttrf(*args, **kwargs):
        *out, _ = dpttrf(*args, **kwargs)
        return (*out, info)

    monkeypatch.setattr(dsm.operators, "dpttrf", failing_dpttrf)
    model = OperatorModel("cubic", QuadratureGrid(n))
    values = np.zeros((2, n))
    rhs = np.ones((2, n))
    with pytest.raises(SingularShiftError) as err:
        model.solve_shifted_values(values, np.full((2, 1), 0.5), rhs)
    row, node = divmod(max(info - 1, 0), n)
    assert (err.value.row, err.value.pivot_index) == (row, node)


@pytest.mark.parametrize("kind", ["arctan3", "cubic", "linear"])
def test_shifted_solve_at_large_n(kind, monkeypatch):
    # a dense kernel at n = 1e5 would take 80 GB; the step needs none (the
    # dense Jacobian is the only place one is formed), and on a grid this
    # fine its refinement step keeps the residual at rounding level
    monkeypatch.setattr(OperatorModel, "jacobian", _no_dense_matrix)
    n = 100_000
    grid = QuadratureGrid(n)
    model = OperatorModel(kind, grid)
    rng = np.random.default_rng(31)
    u = GridFunction(grid, rng.standard_normal(n))
    rhs = GridFunction(grid, rng.standard_normal(n))
    for a in (1e-4, 1e-2, 1.0):
        step = solve_shifted_linear(model, u, a, rhs)
        residual = rhs.values - _shifted_operator(model, u, a, step)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs.values)


def _no_dense_matrix(model, u):
    raise AssertionError("formed a dense n x n matrix")


@pytest.mark.parametrize("n", [10_000, 100_000])
@pytest.mark.parametrize("kind", ["arctan3", "cubic", "linear"])
def test_shifted_solve_smallest_shift_on_refined_branch(kind, n):
    # a = 1e-8, the smallest shift the property test above draws, on grids
    # past the refinement limit.  With no g' on the diagonal the linear
    # model's system is nearly E W alone, and its relative residual is the
    # largest, about 4e-11 at either n.
    grid = QuadratureGrid(n)
    model = OperatorModel(kind, grid)
    rng = np.random.default_rng(31)
    u = GridFunction(grid, rng.standard_normal(n))
    rhs = GridFunction(grid, rng.standard_normal(n))
    step = solve_shifted_linear(model, u, 1e-8, rhs)
    residual = rhs.values - _shifted_operator(model, u, 1e-8, step)
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs.values)


@pytest.mark.parametrize("n", [100, _UNREFINED_MAX_N + 1])
@pytest.mark.parametrize("a", [1e-300, 1e-310, 5e-324])
@pytest.mark.parametrize("kind", ["linear", "cubic"])
def test_tiny_shift_solves_or_names_its_node(kind, a, n):
    # with g'(0) = 0 the shift is all of D, and (1 - rho^2) w / D nears or
    # passes the largest double: the middle row of the stack either meets
    # the residual bound or raises at a node of its own, never a wrong step.
    # With a small right-hand side y = D s is subnormal unless the solve
    # rescales it.  Unscaled, the middle row's relative residual was 1.5e-6
    # to 1.2e-3 at a = 1e-300, scale 1e-20 and a = 1e-310, scale 1e-12, and
    # 1 or more at a = 1e-310, scale 1e-20; rescaled it is at most 4.7e-12
    grid = QuadratureGrid(n)
    model = OperatorModel(kind, grid)
    shifts = np.array([[1e-2], [a], [1.0]])
    for scale in (1.0, 1e-12, 1e-20):
        rhs = scale * np.random.default_rng(43).standard_normal((3, n))
        try:
            with np.errstate(over="ignore"):
                step = model.solve_shifted_values(np.zeros((3, n)), shifts, rhs)
        except SingularShiftError as err:
            assert err.row == 1 and 0 <= err.pivot_index < n
            continue
        for k in range(3):
            s = GridFunction(grid, step[k])
            residual = rhs[k] - (model.apply_kernel(s).values + shifts[k, 0] * step[k])
            assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs[k]), (scale, k)


@pytest.mark.parametrize("n", [100, _UNREFINED_MAX_N + 1])
def test_rescaled_rows_keep_their_bits_where_y_stays_normal(n, monkeypatch):
    # scaling by a power of 2 is exact: at a = 1e-300 and a right-hand side
    # of scale 1, y = D s stays normal, so the rescaled middle row gets the
    # bits of the unscaled solve
    model = OperatorModel("linear", QuadratureGrid(n))
    rhs = np.random.default_rng(5).standard_normal((3, n))
    shifts = np.array([[1e-2], [1e-300], [1.0]])
    rescaled = model.solve_shifted_values(np.zeros((3, n)), shifts, rhs)
    monkeypatch.setattr(dsm.operators, "_RESCALE_DIAG", np.inf)
    unscaled = model.solve_shifted_values(np.zeros((3, n)), shifts, rhs)
    np.testing.assert_array_equal(rescaled, unscaled)


@pytest.mark.parametrize("overwrite", [0, 1])
@pytest.mark.parametrize("n", [100, _UNREFINED_MAX_N + 1])
@pytest.mark.parametrize("rows", [1, 55])
def test_loaded_dpttrf_dpttrs_match_scipy_linalg(rows, n, overwrite):
    """The dpttrf and dpttrs loaded straight from scipy's _flapack give the
    bits that scipy.linalg.lapack's give, on block systems shaped like a
    stacked shifted solve, and report a non-positive pivot the same way."""
    from scipy.linalg.lapack import dpttrf, dpttrs

    size = rows * n
    rng = np.random.default_rng(size + overwrite)
    # diagonally dominant, so positive definite: every pivot exceeds 1
    diag = 3.0 + rng.random(size)
    coupling = rng.standard_normal(size - 1).clip(-1.0, 1.0)
    # zero couplings between the last node of a row and the first of the next
    coupling[n - 1::n] = 0.0
    rhs = rng.standard_normal(size)
    # the last row's first pivot is negative: info names it, 1-based
    first = (rows - 1) * n
    singular = diag.copy()
    singular[first] = -1.0
    infos = []
    for d in (diag, singular):
        got = dsm.operators.dpttrf(d.copy(), coupling.copy(), overwrite, overwrite)
        want = dpttrf(d.copy(), coupling.copy(), overwrite, overwrite)
        assert len(got) == len(want) == 3
        for got_out, want_out in zip(got[:2], want[:2]):
            assert got_out.tobytes() == want_out.tobytes()
        assert got[2] == want[2]
        infos.append(got[2])
    assert infos == [0, first + 1]
    d, e, _ = dpttrf(diag, coupling)
    got = dsm.operators.dpttrs(d, e, rhs.copy(), overwrite)
    want = dpttrs(d, e, rhs.copy(), overwrite)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1] == 0


def test_missing_flapack_names_the_scipy_version(tmp_path, monkeypatch):
    # a scipy without linalg/_flapack: one ImportError naming the version
    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match=f"scipy {importlib.metadata.version('scipy')} "):
        dsm.operators._load_flapack()


def test_running_a_cell_imports_no_scipy_linalg():
    # scipy.linalg's package import pulls in numpy.testing and numpy.f2py
    # and costs about 0.3 s of every start-up; a run needs only dpttrf and
    # dpttrs
    code = (
        "import sys\n"
        "import dsm\n"
        "from dsm.harness import PRESETS, run_cells\n"
        "cells = list(run_cells(PRESETS['exp2-const'].override(delta_rel=(0.05,))))\n"
        "assert all(cell.record.stopped_by_discrepancy for cell in cells)\n"
        "print(sorted(m for m in ('scipy.linalg', 'numpy.f2py', 'numpy.testing') if m in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
