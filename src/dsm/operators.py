"""Monotone operator models on [0, 1].

Each model is F(u) = B(u) + g(u) where

    B(u)(x) = integral_0^1 exp(-|x - y|) u(y) dy

is discretized with the grid's trapezoidal weights and g is a pointwise
monotone nonlinearity:

    arctan3   g(u) = arctan(u)^3
    cubic     g(u) = u^3
    linear    g(u) = 0          (F = B)
    identity  F(u) = u          (no kernel term)

The exp kernel is symmetric positive definite, and g is nondecreasing, so
every model is monotone with respect to the weighted inner product:
<F(u) - F(v), u - v> >= 0.

On the uniform grid the kernel values E_ij = exp(-|x_i - x_j|) = rho^|i-j|,
rho = exp(-h), form a Kac-Murdock-Szego matrix, whose inverse is
tridiagonal: (1 - rho^2) E^{-1} = T with diagonal (1, 1 + rho^2, ...,
1 + rho^2, 1) and off-diagonals -rho.  Applying F and solving the shifted
Newton system (F'(u) + a I) s = r therefore cost O(n) each; no n x n
matrix is formed on that path.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv

from .hilbert import GridFunction, GridMismatchError, QuadratureGrid

__all__ = ["MODEL_KINDS", "OperatorModel", "SingularShiftError", "matvec"]

MODEL_KINDS = ("arctan3", "cubic", "linear", "identity")


class SingularShiftError(RuntimeError):
    """The shifted Newton system F'(u) + a*I meets a zero or non-finite
    pivot, or its solution is not finite."""

    def __init__(self, pivot_index: int):
        self.pivot_index = int(pivot_index)
        super().__init__(f"numerically singular pivot at index {self.pivot_index}")


def _g_arctan3(u):
    return np.arctan(u) ** 3


def _gprime_arctan3(u):
    return 3.0 * np.arctan(u) ** 2 / (1.0 + u * u)


def _g_cubic(u):
    return u ** 3


def _gprime_cubic(u):
    return 3.0 * u * u


_NONLINEARITY = {
    "arctan3": (_g_arctan3, _gprime_arctan3),
    "cubic": (_g_cubic, _gprime_cubic),
    "linear": (None, None),
    "identity": (None, None),
}


class OperatorModel:
    """One of the operator models above, bound to a grid.

    :meth:`apply` and :meth:`solve_shifted` cost O(n) and allocate no n x n
    array.  The dense kernel matrix K_ij = w_j * exp(-|x_i - x_j|) and
    :meth:`jacobian` are O(n^2) diagnostics: ``kernel`` is built on first
    access and cached.
    """

    def __init__(self, kind: str, grid: QuadratureGrid):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
        self.kind = kind
        self.grid = grid
        self._g, self._gprime = _NONLINEARITY[kind]
        self._up = np.exp(grid.nodes)
        self._down = np.exp(-grid.nodes)
        # T = (1 - rho^2) E^{-1}: its off-diagonal -rho and its diagonal, and
        # the (1 - rho^2) W term of the Newton system
        self._rho = math.exp(-grid.h)
        self._t_diag = np.full(grid.n, 1.0 + self._rho ** 2)
        self._t_diag[[0, -1]] = 1.0
        self._cw = -math.expm1(-2.0 * grid.h) * grid.weights

    def __repr__(self):
        return f"OperatorModel({self.kind!r}, n={self.grid.n})"

    def _check(self, u: GridFunction):
        if u.grid != self.grid:
            raise GridMismatchError(f"function on {u.grid!r}, model on {self.grid!r}")

    @cached_property
    def kernel(self) -> np.ndarray:
        """Dense K_ij = w_j * exp(-|x_i - x_j|), for O(n^2) diagnostics only."""
        x = self.grid.nodes
        kernel = np.exp(-np.abs(x[:, None] - x[None, :])) * self.grid.weights[None, :]
        kernel.flags.writeable = False
        return kernel

    def _kernel_values(self, values):
        # E (w*u) as two running sums: exp(-|x_i - x_j|) is exp(-x_i) exp(x_j)
        # for j <= i and exp(x_i) exp(-x_j) for j >= i, so the diagonal term is
        # counted twice.  Every factor lies in [1/e, e].
        v = self.grid.weights * values
        up, down = self._up, self._down
        return down * np.cumsum(up * v) + up * np.cumsum((down * v)[::-1])[::-1] - v

    def apply_kernel(self, u: GridFunction) -> GridFunction:
        """The integral term B(u) alone."""
        self._check(u)
        return GridFunction(self.grid, self._kernel_values(u.values))

    def apply(self, u: GridFunction) -> GridFunction:
        """F(u)."""
        self._check(u)
        if self.kind == "identity":
            return GridFunction(self.grid, u.values)
        out = self._kernel_values(u.values)
        if self._g is not None:
            out += self._g(u.values)
        return GridFunction(self.grid, out)

    def jacobian(self, u: GridFunction) -> np.ndarray:
        """Dense derivative matrix F'(u) = K + diag(g'(u)), an O(n^2) diagnostic."""
        self._check(u)
        n = self.grid.n
        if self.kind == "identity":
            return np.eye(n)
        jac = self.kernel.copy()
        if self._gprime is not None:
            jac[np.diag_indices(n)] += self._gprime(u.values)
        return jac

    def solve_shifted(self, u: GridFunction, a: float, rhs: GridFunction) -> GridFunction:
        """Solve (F'(u) + a*I) s = rhs in O(n).

        F'(u) + a*I = E W + D with W = diag(w) and D = diag(g'(u) + a).
        Multiplying by T = (1 - rho^2) E^{-1} gives the tridiagonal system
        ((1 - rho^2) W + T D) s = T rhs, which LAPACK ``dgtsv`` solves by
        Gaussian elimination with partial pivoting.  One step of iterative
        refinement against the O(n) operator follows: multiplying by T
        amplifies rounding by up to about 1/h^2, and the refinement brings
        the residual back to rounding level.  The identity model's step is
        rhs / (1 + a).

        Raises :class:`SingularShiftError` at a zero or non-finite pivot or
        a non-finite solution.
        """
        self._check(u)
        self._check(rhs)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.kind == "identity":
                step = rhs.values / (1.0 + a)
            elif self._gprime is None:
                step = self._solve_refined(np.full(self.grid.n, float(a)), rhs.values)
            else:
                step = self._solve_refined(self._gprime(u.values) + a, rhs.values)
        if not np.isfinite(step).all():
            raise SingularShiftError(np.flatnonzero(~np.isfinite(step))[0])
        return GridFunction(self.grid, step)

    def _solve_refined(self, shift, rhs):
        rho, t = self._rho, self._t_diag
        diag = self._cw + t * shift
        lower = -rho * shift[:-1]
        upper = -rho * shift[1:]

        def solve(b):
            tb = t * b
            tb[1:] -= rho * b[:-1]
            tb[:-1] -= rho * b[1:]
            return dgtsv(lower, diag, upper, tb)

        _, pivots, _, step, info = solve(rhs)
        if info > 0:
            raise SingularShiftError(info - 1)
        if not np.isfinite(pivots).all():
            raise SingularShiftError(np.flatnonzero(~np.isfinite(pivots))[0])
        return step + solve(rhs - self._kernel_values(step) - shift * step)[3]


def matvec(matrix: np.ndarray, w: GridFunction) -> GridFunction:
    """Apply a dense matrix to a grid function's values."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (w.grid.n, w.grid.n):
        raise GridMismatchError(
            f"matrix shape {matrix.shape} does not match grid n={w.grid.n}"
        )
    return GridFunction(w.grid, matrix @ w.values)
