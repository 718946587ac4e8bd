"""Grid, quadrature, and weighted-norm behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsm.hilbert import (
    GridFunction,
    GridMismatchError,
    QuadratureGrid,
    inner,
    norm,
    norms,
    rel_error,
)
from dsm.regsolve import regularized_residual


def test_grid_nodes_and_weights():
    grid = QuadratureGrid(5)
    assert grid.h == 0.25
    np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(grid.weights, [0.125, 0.25, 0.25, 0.25, 0.125])


def test_weights_sum_to_one():
    for n in (2, 3, 17, 100, 301):
        assert abs(QuadratureGrid(n).weights.sum() - 1.0) < 1e-14


def test_interior_third_nodes_are_exact():
    # the step exact solution needs x_33 == 1/3 and x_66 == 2/3 on n=100
    grid = QuadratureGrid(100)
    assert grid.nodes[33] == 1.0 / 3.0
    assert grid.nodes[66] == 2.0 / 3.0


def test_grid_rejects_tiny_n():
    with pytest.raises(ValueError):
        QuadratureGrid(1)


@pytest.mark.parametrize("n", [30.5, 2.9, math.nan, math.inf])
def test_grid_rejects_a_non_integer_size(n):
    # int(n) made QuadratureGrid(30.5) a 30-point grid and QuadratureGrid(2.9)
    # a 2-point one
    with pytest.raises(ValueError, match="integer"):
        QuadratureGrid(n)


def test_grid_takes_any_integer_size():
    assert QuadratureGrid(np.int64(30)) == QuadratureGrid(30.0) == QuadratureGrid(30)


def test_grid_equality_is_by_size():
    assert QuadratureGrid(10) == QuadratureGrid(10)
    assert QuadratureGrid(10) != QuadratureGrid(11)


def test_values_are_frozen_and_copied():
    grid = QuadratureGrid(4)
    source = np.ones(4)
    u = GridFunction(grid, source)
    source[0] = 99.0
    assert u.values[0] == 1.0
    with pytest.raises(ValueError):
        u.values[0] = 5.0


def test_nonfinite_values_rejected():
    grid = QuadratureGrid(4)
    with pytest.raises(ValueError):
        GridFunction(grid, [1.0, np.inf, 0.0, 0.0])
    with pytest.raises(ValueError):
        GridFunction(grid, [1.0, np.nan, 0.0, 0.0])


def test_shape_mismatch_rejected():
    with pytest.raises(GridMismatchError):
        GridFunction(QuadratureGrid(4), [1.0, 2.0])


def test_mixed_grid_arithmetic_rejected():
    u = GridFunction(QuadratureGrid(4), np.zeros(4))
    v = GridFunction(QuadratureGrid(5), np.zeros(5))
    with pytest.raises(GridMismatchError):
        u + v
    with pytest.raises(GridMismatchError):
        inner(u, v)


def test_quadrature_exact_for_linear():
    # trapezoid integrates polynomials of degree <= 1 exactly
    grid = QuadratureGrid(13)
    one = GridFunction(grid, np.ones(grid.n))
    x = GridFunction(grid, grid.nodes)
    assert abs(inner(one, one) - 1.0) < 1e-15
    assert abs(inner(x, one) - 0.5) < 1e-15


def test_quadrature_quadratic_error_scales_as_h_squared():
    # int_0^1 x^2 dx = 1/3; composite trapezoid error is h^2/6 * f''/2
    errs = []
    for n in (11, 21, 41):
        grid = QuadratureGrid(n)
        x = GridFunction(grid, grid.nodes)
        errs.append(abs(inner(x, x) - 1.0 / 3.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_sine_norm_against_closed_form():
    # int_0^1 sin(3 pi x)^2 dx = 1/2
    grid = QuadratureGrid(200)
    s = GridFunction(grid, np.sin(3.0 * np.pi * grid.nodes))
    assert inner(s, s) == pytest.approx(0.5, abs=1e-3)


def test_rel_error_zero_reference_raises():
    zero = GridFunction(QuadratureGrid(4), np.zeros(4))
    with pytest.raises(ValueError):
        rel_error(zero, zero)


def test_rel_error_basic():
    grid = QuadratureGrid(4)
    u = GridFunction(grid, np.ones(4))
    assert rel_error(2.0 * u, u) == pytest.approx(1.0, rel=1e-12)


values_st = arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=st.floats(min_value=-3.0, max_value=3.0),
)


@st.composite
def function_pairs(draw):
    values = draw(values_st)
    grid = QuadratureGrid(len(values))
    other = draw(
        arrays(np.float64, len(values), elements=st.floats(min_value=-3.0, max_value=3.0))
    )
    return GridFunction(grid, values), GridFunction(grid, other)


@given(function_pairs())
@settings(max_examples=200, deadline=None)
def test_cauchy_schwarz(pair):
    u, v = pair
    assert abs(inner(u, v)) <= norm(u) * norm(v) + 1e-12


@given(function_pairs())
@settings(max_examples=200, deadline=None)
def test_triangle_inequality(pair):
    u, v = pair
    assert norm(u + v) <= norm(u) + norm(v) + 1e-12


@given(function_pairs())
@settings(max_examples=100, deadline=None)
def test_inner_symmetry(pair):
    u, v = pair
    assert inner(u, v) == pytest.approx(inner(v, u), abs=1e-14)


@given(values_st)
@settings(max_examples=100, deadline=None)
def test_norm_scales_linearly(values):
    grid = QuadratureGrid(len(values))
    u = GridFunction(grid, values)
    assert norm(-2.5 * u) == pytest.approx(2.5 * norm(u), rel=1e-12, abs=1e-15)


@st.composite
def stacks(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    rows = draw(st.integers(min_value=1, max_value=6))
    elements = st.floats(min_value=-3.0, max_value=3.0)
    return [draw(arrays(np.float64, (rows, n), elements=elements)) for _ in range(3)]


@given(stacks(), st.floats(min_value=1e-4, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_norms_of_a_stack_is_the_one_weighted_norm(stack, a):
    # norms is the one weighted-norm sum: one norm per row of a stack, bit
    # for bit hilbert.norm of that row and the regularized residual's norm;
    # G = a*v + r from r = F(v) - f is (F(v) - f) + a*v bit for bit
    fv, v, f_values = stack
    grid = QuadratureGrid(v.shape[1])
    g, g_norms = regularized_residual(grid, fv - f_values, v, a)
    np.testing.assert_array_equal(g, (fv - f_values) + a * v)
    np.testing.assert_array_equal(norms(grid, g), g_norms)
    assert norms(grid, g).shape == (len(g),)
    for k, row in enumerate(g):
        assert norm(GridFunction(grid, row)) == g_norms[k]
        assert norms(grid, row) == g_norms[k]
