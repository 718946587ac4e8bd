"""Operator models: kernel discretization, monotonicity, Jacobians, the O(n)
apply and shifted solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsm.hilbert import GridFunction, GridMismatchError, QuadratureGrid, inner, norm
from dsm.operators import MODEL_KINDS, OperatorModel, SingularShiftError, matvec
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
        model.apply(QuadratureGrid(11).zero())


def test_identity_is_identity():
    grid = QuadratureGrid(17)
    model = OperatorModel("identity", grid)
    u = grid.sample(np.cos)
    np.testing.assert_array_equal(model.apply(u).values, u.values)
    np.testing.assert_array_equal(model.jacobian(u), np.eye(17))


def test_linear_drops_nonlinearity():
    grid = QuadratureGrid(23)
    lin = OperatorModel("linear", grid)
    u = grid.sample(lambda x: x - 0.3)
    np.testing.assert_array_equal(lin.apply(u).values, lin.apply_kernel(u).values)


def test_arctan3_and_cubic_reduce_to_linear_at_zero():
    grid = QuadratureGrid(12)
    zero = grid.zero()
    for kind in ("arctan3", "cubic"):
        model = OperatorModel(kind, grid)
        np.testing.assert_allclose(model.apply(zero).values, 0.0, atol=1e-15)
        # g'(0) = 0 for both nonlinearities, so F'(0) is the kernel matrix
        np.testing.assert_array_equal(model.jacobian(zero), model.kernel)


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
        matvec(np.eye(5), grid.zero())


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
        dense = model.kernel @ u.values + _G[kind](u.values)
        scale = np.abs(model.kernel) @ np.abs(u.values) + np.abs(_G[kind](u.values))
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
        model.solve_shifted(u, a, rhs).values,
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


@pytest.mark.parametrize("row", [0, 2, 4])
@pytest.mark.parametrize("node", [0, 7, 39])
def test_singular_row_is_named(row, node):
    # g'(u) = 3u^2 overflows to inf at one node of one row of the stack
    grid = QuadratureGrid(40)
    model = OperatorModel("cubic", grid)
    values = np.zeros((5, grid.n))
    values[row, node] = 1e200
    rhs = np.tile(np.cos(grid.nodes), (5, 1))
    with pytest.raises(SingularShiftError) as err, np.errstate(over="ignore"):
        model.solve_shifted_values(values, np.full((5, 1), 0.5), rhs)
    assert (err.value.row, err.value.pivot_index) == (row, node)
    assert f"index {node} of row {row}" in str(err.value)


@pytest.mark.parametrize("kind", ["arctan3", "cubic", "linear"])
def test_shifted_solve_at_large_n(kind):
    # a dense kernel at n = 1e5 would take 80 GB; the step needs none, and
    # its refinement step keeps the residual at rounding level
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
    assert "kernel" not in model.__dict__
