"""Discrete L2[0, 1]: uniform grids, trapezoidal weights, weighted inner products.

Functions on [0, 1] are represented by their node values on a uniform closed
grid.  All inner products and norms in this module are weighted by the
trapezoidal quadrature weights, so they approximate the continuum L2
quantities and are independent of grid resolution.  :func:`norms`, on raw
node arrays, is the one weighted-norm sum in the package.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GridMismatchError",
    "QuadratureGrid",
    "GridFunction",
    "inner",
    "norms",
    "norm",
    "rel_error",
]


class GridMismatchError(ValueError):
    """Operands do not live on the same grid."""


class QuadratureGrid:
    """Uniform closed grid on [0, 1] with trapezoidal quadrature weights.

    Nodes are x_i = i/(n-1) for i = 0..n-1.  Weights are h/2 at both
    endpoints and h in the interior, h = 1/(n-1); they sum to 1.
    """

    __slots__ = ("n", "h", "nodes", "weights")

    def __init__(self, n: int):
        if not (n >= 2 and float(n).is_integer()):
            raise ValueError(f"grid needs an integer number of nodes >= 2, got n={n}")
        n = int(n)
        self.n = n
        self.h = 1.0 / (n - 1)
        # arange/(n-1) keeps each node correctly rounded (x_33 on a 100-point
        # grid compares equal to 1/3, which the step exact solution relies on).
        self.nodes = np.arange(n, dtype=float) / (n - 1)
        weights = np.full(n, self.h)
        weights[0] = 0.5 * self.h
        weights[-1] = 0.5 * self.h
        self.nodes.flags.writeable = False
        weights.flags.writeable = False
        self.weights = weights

    def __eq__(self, other):
        return isinstance(other, QuadratureGrid) and other.n == self.n

    def __hash__(self):
        return hash((QuadratureGrid, self.n))

    def __repr__(self):
        return f"QuadratureGrid(n={self.n})"


class GridFunction:
    """A real-valued function sampled on a :class:`QuadratureGrid`.

    Values are copied and frozen at construction, and must be finite.
    Supports addition, subtraction and scalar multiplication; anything
    metric goes through :func:`inner`, :func:`norm`, :func:`rel_error`.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: QuadratureGrid, values):
        values = np.array(values, dtype=float, copy=True).reshape(-1)
        if values.shape != (grid.n,):
            raise GridMismatchError(
                f"expected {grid.n} values, got shape {values.shape}"
            )
        # counted rather than np.all(...): the reduction wrapper costs more
        # than the check on the short rows wrapped here
        if np.count_nonzero(np.isfinite(values)) != values.size:
            raise ValueError("grid function values must be finite")
        values.flags.writeable = False
        self.grid = grid
        self.values = values

    def __add__(self, other):
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    def __repr__(self):
        return f"GridFunction(n={self.grid.n})"


def _check_same_grid(u: GridFunction, v: GridFunction):
    if u.grid != v.grid:
        raise GridMismatchError(f"grids differ: {u.grid!r} vs {v.grid!r}")


def inner(u: GridFunction, v: GridFunction) -> float:
    """Quadrature-weighted inner product sum_i w_i u_i v_i."""
    _check_same_grid(u, v)
    return float(np.vecdot(u.values, u.grid.weights * v.values))


def norms(grid: QuadratureGrid, values) -> np.ndarray:
    """Weighted L2 norm of raw node values along the last axis: one norm for
    one row ``(n,)``, one per row for a stack ``(S, n)``; unchecked."""
    return np.sqrt(np.vecdot(values, grid.weights * values))


def norm(u: GridFunction) -> float:
    """Weighted L2 norm sqrt(inner(u, u))."""
    return float(norms(u.grid, u.values))


def rel_error(u: GridFunction, ref: GridFunction) -> float:
    """norm(u - ref) / norm(ref); the reference must be nonzero."""
    _check_same_grid(u, ref)
    ref_norm = norm(ref)
    if ref_norm == 0.0:
        raise ValueError("relative error against a zero reference")
    return norm(u - ref) / ref_norm
