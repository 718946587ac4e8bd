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

Both live on raw node arrays as the unchecked kernels
:meth:`OperatorModel.apply_values` and :meth:`OperatorModel.solve_shifted_values`,
which the Newton loops call directly.  They take one row of node values or
a stack of rows of shape ``(S, n)``, one row per run of a batch, and treat
every row on its own: a row of a stack gives bit for bit what it gives
alone.  The public :meth:`~OperatorModel.apply`,
:meth:`~OperatorModel.apply_kernel` and :meth:`~OperatorModel.solve_shifted`
wrap them with a grid check and a :class:`~dsm.hilbert.GridFunction` result.
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
    pivot, or its solution is not finite.

    ``row`` is the row of a stacked solve (0 for a single one) and
    ``pivot_index`` the node within that row.
    """

    def __init__(self, pivot_index: int, row: int = 0):
        self.pivot_index = int(pivot_index)
        self.row = int(row)
        super().__init__(
            f"numerically singular pivot at index {self.pivot_index} of row {self.row}"
        )


def _all_finite(x):
    # np.isfinite(x).all() without the Python-level reduction wrapper
    return np.count_nonzero(np.isfinite(x)) == x.size


def _raise_singular(n, *masks):
    # the first flagged (row, node) of the first mask that flags any
    for mask in masks:
        hits = np.flatnonzero(mask)
        if hits.size:
            row, node = divmod(int(hits[0]), n)
            raise SingularShiftError(node, row)


# cubes by multiplication: x ** 3 on an array goes through np.power, several
# times slower than two multiplications
def _g_arctan3(u):
    t = np.arctan(u)
    return t * t * t


def _gprime_arctan3(u):
    return 3.0 * np.arctan(u) ** 2 / (1.0 + u * u)


def _g_cubic(u):
    return u * u * u


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
    array; :meth:`apply_values` and :meth:`solve_shifted_values` are the same
    kernels on raw node arrays, one row or a stack of rows, without the
    checks.  The dense kernel matrix
    K_ij = w_j * exp(-|x_i - x_j|) and :meth:`jacobian` are O(n^2)
    diagnostics: ``kernel`` is built on first access and cached.
    """

    def __init__(self, kind: str, grid: QuadratureGrid):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
        self.kind = kind
        self.grid = grid
        self._g, self._gprime = _NONLINEARITY[kind]
        # exp(+-x), with the quadrature weights folded into the factors the
        # running sums multiply by; the reversed copy feeds the sum from the right
        self._up = np.exp(grid.nodes)
        self._down = np.exp(-grid.nodes)
        self._up_w = self._up * grid.weights
        self._down_w_rev = (self._down * grid.weights)[::-1].copy()
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

    def _rows(self, values):
        # A stack of S > 1 rows as shape (S, n), and a single row, stacked or
        # not, as shape (n,): the kernels below work on either, and numpy's
        # calls on small arrays cost less in one dimension.
        rows = values.reshape(-1, self.grid.n)
        return rows[0] if len(rows) == 1 else rows

    def _kernel_values(self, rows):
        # E (w*u) as two running sums: exp(-|x_i - x_j|) is exp(-x_i) exp(x_j)
        # for j <= i and exp(x_i) exp(-x_j) for j >= i, so the diagonal term is
        # counted twice.  Every factor lies in [1/e, e].  The sums run along
        # each row on its own.
        out = np.add.accumulate(self._up_w * rows, axis=-1)
        out *= self._down
        rev = np.add.accumulate(self._down_w_rev * rows[..., ::-1], axis=-1)
        out += self._up * rev[..., ::-1]
        out -= self.grid.weights * rows
        return out

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """F on raw node values, one row or a stack of rows ``(S, n)``,
        unchecked: a non-finite input or an overflowing g gives non-finite
        entries instead of an error."""
        rows = self._rows(values)
        if self.kind == "identity":
            out = np.array(rows, dtype=float)
        else:
            out = self._kernel_values(rows)
            if self._g is not None:
                out += self._g(rows)
        return out.reshape(values.shape)

    def apply_kernel(self, u: GridFunction) -> GridFunction:
        """The integral term B(u) alone."""
        self._check(u)
        return GridFunction(self.grid, self._kernel_values(u.values))

    def apply(self, u: GridFunction) -> GridFunction:
        """F(u); raises ``ValueError`` where F(u) is not finite."""
        self._check(u)
        return GridFunction(self.grid, self.apply_values(u.values))

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
        """Solve (F'(u) + a*I) s = rhs; see :meth:`solve_shifted_values`."""
        self._check(u)
        self._check(rhs)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step = self.solve_shifted_values(u.values, a, rhs.values)
        return GridFunction(self.grid, step)

    def solve_shifted_values(self, values: np.ndarray, a, rhs: np.ndarray) -> np.ndarray:
        """Solve (F'(u) + a*I) s = rhs in O(n) on raw node values, unchecked.

        ``values`` and ``rhs`` are one row of node values or a stack of rows
        ``(S, n)``, each row its own system; ``a`` is a scalar or a column
        ``(S, 1)`` of per-row shifts.  Like :meth:`apply_values` it leaves
        numpy's floating-point warnings to the caller.

        F'(u) + a*I = E W + D with W = diag(w) and D = diag(g'(u) + a).
        Multiplying by T = (1 - rho^2) E^{-1} gives the tridiagonal system
        ((1 - rho^2) W + T D) s = T rhs, which LAPACK ``dgtsv`` solves by
        Gaussian elimination with partial pivoting.  The rows go to it as one
        block-diagonal system of S*n unknowns with zero couplings across row
        boundaries: partial pivoting never swaps across a zero subdiagonal
        below a finite nonzero pivot, so every row's solution is the one it
        has alone.  One step of iterative refinement against the O(n)
        operator follows: multiplying by T amplifies rounding by up to about
        1/h^2, and the refinement brings the residual back to rounding level.
        The identity model's step is rhs / (1 + a).

        Raises :class:`SingularShiftError` at a non-finite entry of the
        system, a zero or non-finite pivot, or a non-finite solution; it
        names the first such row and the node within it.
        """
        rows, b = self._rows(values), self._rows(rhs)
        if rows.ndim == 1 and getattr(a, "ndim", 0):
            a = a.reshape(())
        if self.kind == "identity":
            step = b / (1.0 + a)
            if not _all_finite(step):
                _raise_singular(self.grid.n, ~np.isfinite(step))
        elif self._gprime is None:
            step = self._solve_refined(np.broadcast_to(a, rows.shape), b)
        else:
            shift = self._gprime(rows)
            shift += a
            step = self._solve_refined(shift, b)
        return step.reshape(values.shape)

    def _t_times(self, rows):
        # T = (1 - rho^2) E^{-1} applied to each row, flattened for dgtsv
        out = self._t_diag * rows
        out[..., 1:] -= self._rho * rows[..., :-1]
        out[..., :-1] -= self._rho * rows[..., 1:]
        return out.ravel()

    def _solve_refined(self, shift, rhs):
        n = self.grid.n
        diag = self._t_diag * shift
        diag += self._cw
        diag = diag.ravel()
        off = shift * -self._rho
        # no coupling between the last node of a row and the first of the next
        upper = off.ravel()[1:].copy()
        upper[n - 1::n] = 0.0
        off[..., -1] = 0.0
        lower = off.ravel()[:-1]
        _, pivots, _, step, info = dgtsv(lower, diag, upper, self._t_times(rhs), overwrite_b=1)
        step = step.reshape(shift.shape)
        if info == 0 and _all_finite(pivots):
            correction = rhs - self._kernel_values(step)
            correction -= shift * step
            refined = dgtsv(lower, diag, upper, self._t_times(correction), 1, 1, 1, 1)[3]
            step += refined.reshape(shift.shape)
            if _all_finite(step):
                return step
        # a non-finite row can spill into its neighbours' pivots and
        # solutions, so blame a non-finite system first, then the pivots
        _raise_singular(
            n,
            ~np.isfinite(diag) | ~np.isfinite(rhs.ravel()),
            (pivots == 0.0) | ~np.isfinite(pivots),
            ~np.isfinite(step),
        )


def matvec(matrix: np.ndarray, w: GridFunction) -> GridFunction:
    """Apply a dense matrix to a grid function's values."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (w.grid.n, w.grid.n):
        raise GridMismatchError(
            f"matrix shape {matrix.shape} does not match grid n={w.grid.n}"
        )
    return GridFunction(w.grid, matrix @ w.values)
