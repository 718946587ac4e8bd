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
matrix is formed on that path.  The step is one factorization of a
symmetric positive definite tridiagonal matrix and one solve with it.  On
a stack of rows T acts on each row on its own; the rows meet only in the
factorization, one block-diagonal system whose zero couplings between rows
live in the factor alone and split it into one block per row.
Multiplying by the tridiagonal inverse amplifies rounding by about 1/h^2, so
on grids of more than 1000 points, where that could exceed the step's
relative residual bound of 1e-10, one step of iterative refinement follows
with the same factor.

Both live on raw node arrays as the unchecked kernels
:meth:`OperatorModel.apply_values` and :meth:`OperatorModel.solve_shifted_values`.
They take one row of node values or a stack of rows of shape ``(S, n)``,
one row per run of a batch, and treat every row on its own: a row of a
stack gives bit for bit what it gives alone.  The Newton loop calls them
in split forms: F as L u + g(u), keeping the linear part L u = E W u (u
for the identity model), and the solve together with L s = rhs - D s
from the Newton equation, so that its line search evaluates F at a trial
point with no running sum.  The public :meth:`~OperatorModel.apply` and
:meth:`~OperatorModel.apply_kernel`, and
:func:`dsm.regsolve.solve_shifted_linear` for the shifted solve, wrap them
with a grid check and a :class:`~dsm.hilbert.GridFunction` result.

The factorization and solve are LAPACK ``dpttrf`` and ``dpttrs`` from
scipy's compiled wrapper ``scipy/linalg/_flapack``, loaded on its own
without importing ``scipy.linalg``; scipy is used for nothing else.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from .hilbert import GridFunction, GridMismatchError, QuadratureGrid

__all__ = ["MODEL_KINDS", "OperatorModel", "SingularShiftError", "matvec"]

MODEL_KINDS = ("arctan3", "cubic", "linear", "identity")


def _load_flapack():
    # Taking the routines from scipy.linalg.lapack runs scipy.linalg's __init__,
    # which with scipy 1.17 reaches scipy._lib.array_api_compat and through it
    # numpy.testing, numpy.f2py and unittest: python -X importtime puts it at
    # 330 ms on a 2-core x86-64 host, 210 ms of it in that array-API layer.
    # The compiled wrapper alone loads in 3-6 ms and holds the same
    # routines.  Linux and macOS wheels find scipy's bundled LAPACK through the
    # wrapper's rpath; Windows wheels add that directory in scipy's own
    # __init__, which this skips too.
    scipy = importlib.util.find_spec("scipy")
    spec = None
    if scipy is not None:
        linalg = [os.path.join(path, "linalg") for path in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", linalg)
    if spec is None:
        # names the installed version, or raises PackageNotFoundError, an
        # ImportError, when there is no scipy at all
        from importlib.metadata import version

        raise ImportError(
            f"scipy {version('scipy')} has no LAPACK extension scipy/linalg/_flapack;"
            " dsm needs scipy>=1.13"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs

# The largest grid on which the shifted solve is one tridiagonal solve with no
# refinement step.  Multiplying the Newton system by T = (1 - rho^2) E^{-1} to
# make it tridiagonal amplifies rounding: on a smooth right-hand side T's
# second difference cancels to O(h^2) of its entries, so a rounding of
# eps = 2.2e-16 relative grows to about eps/h^2.  The worst 2-norm relative
# residual of the unrefined step, over arctan3/cubic/linear, a in {1e-8, 1e-4,
# 1e-2, 1} and u of scale 0.1, 1 and 3, measures about 0.15 eps/h^2: 2.9e-12
# at n = 300, 3.4e-11 at n = 1000, 1.0e-9 at n = 10^4.  The step's bound is a
# relative residual of 1e-10, and 0.15 eps (n - 1)^2 stays 3x under it up to
# n = 1001 (the measured margin at n = 1000 is 2.98x).  Below the limit a
# refinement step would only move a residual already far inside what a Newton
# step needs: inexact Newton (Dembo, Eisenstat & Steihaug 1982) asks for a
# relative residual below 1, and the line search's Armijo test certifies
# every step.
_UNREFINED_MAX_N = 1000

# The largest diagonal entry of (T + (1 - rho^2) W D^{-1}) at which a row is
# solved for y = D s unscaled.  By Gershgorin the norm of y is at least that
# of T rhs over the largest entry plus 2, so below 2^64 y stays out of the
# subnormal range for any right-hand side above about 1e-288.  Above it, D is
# tiny (below 2.3e-20 on the coarsest grid, less on finer ones), y = D s
# shrinks with it, and a subnormal y keeps only some of its digits: a shift
# of 1e-310 and a right-hand side of scale 1e-12 gave relative residuals of
# 1e-4 to 1e-3 at n = 100 and 1001, against the bound of 1e-10.
_RESCALE_DIAG = 2.0 ** 64


class SingularShiftError(RuntimeError):
    """The shifted Newton system F'(u) + a*I has a non-finite entry, a
    non-positive pivot, or a solution that is not finite.

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


def _singular(n, flat):
    # the error at flat index ``flat`` of a stack of rows of length n
    row, node = divmod(int(flat), n)
    return SingularShiftError(node, row)


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

    :meth:`apply_values` and :meth:`solve_shifted_values` cost O(n) on raw
    node arrays, one row or a stack of rows, unchecked, and allocate no n x n
    array; :meth:`apply` is F with a grid check and a
    :class:`~dsm.hilbert.GridFunction` result, and
    :func:`dsm.regsolve.solve_shifted_linear` is the checked shifted solve.
    The dense :meth:`jacobian` is an O(n^2) diagnostic that only tests use;
    no solver or check calls it.
    """

    def __init__(self, kind: str, grid: QuadratureGrid):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
        self.kind = kind
        self.grid = grid
        self._g, self._gprime = _NONLINEARITY[kind]
        # The per-node factors below are rows (1, n), so that they meet a stack
        # (S, n) with no broadcast over a missing axis: for a one-row stack at
        # n = 100 that broadcast cost about 1.5 us per operation (timeit).
        # exp(+-x), with the quadrature weights w folded into the factors the
        # running sums multiply by; the reversed copy feeds the sum from the right
        self._up = np.exp(grid.nodes)[None]
        self._down = np.exp(-grid.nodes)[None]
        self._w = grid.weights[None]
        self._up_w = self._up * self._w
        self._down_w_rev = (self._down * self._w)[:, ::-1].copy()
        # T = (1 - rho^2) E^{-1}: its off-diagonal -rho and its diagonal, and
        # the (1 - rho^2) W term of the Newton system
        self._rho = math.exp(-grid.h)
        self._t_diag = np.full((1, grid.n), 1.0 + self._rho ** 2)
        self._t_diag[:, [0, -1]] = 1.0
        self._cw = -math.expm1(-2.0 * grid.h) * self._w
        # the factor's off-diagonal over a flattened stack of rows, zero between
        # the last node of a row and the first of the next; see _coupling
        self._couplings = np.full(grid.n - 1, -self._rho)

    def __repr__(self):
        return f"OperatorModel({self.kind!r}, n={self.grid.n})"

    def _check(self, *functions):
        # every function given (None skips) must live on the model's grid
        for u in functions:
            if u is not None and u.grid != self.grid:
                raise GridMismatchError(f"function on {u.grid!r}, model on {self.grid!r}")

    def _kernel_values(self, rows):
        # E (w*u) for a stack of rows (S, n) as two running sums:
        # exp(-|x_i - x_j|) is exp(-x_i) exp(x_j) for j <= i and
        # exp(x_i) exp(-x_j) for j >= i, so the diagonal term is counted twice.
        # Every factor lies in [1/e, e].  The sums run along each row on its own.
        out = np.add.accumulate(self._up_w * rows, axis=1)
        out *= self._down
        rev = np.add.accumulate(self._down_w_rev * rows[:, ::-1], axis=1)
        out += self._up * rev[:, ::-1]
        out -= self._w * rows
        return out

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """F on raw node values, one row or a stack of rows ``(S, n)``,
        unchecked: a non-finite input or an overflowing g gives non-finite
        entries instead of an error."""
        return self._split_values(values)[0]

    def _split_values(self, values):
        # F(u) and its linear part L u, L = E W (I for the identity model), on
        # raw node values: the Newton loop's exact evaluation.  Where g = 0 the
        # two are one array.  They are computed on a stack (S, n), S = 1 for
        # one row, and come back in the shape of ``values``.
        rows = values.reshape(-1, self.grid.n)
        if self.kind == "identity":
            linear = np.array(rows, dtype=float)
        else:
            linear = self._kernel_values(rows)
        return self._with_g(rows, linear).reshape(values.shape), linear.reshape(values.shape)

    def _with_g(self, rows, linear):
        # F = L u + g(u) from ``linear`` = L u: no running sum.  The line
        # search evaluates its trials this way, with L u carried.
        if self._g is None:
            return linear
        out = self._g(rows)
        out += linear
        return out

    def apply_kernel(self, u: GridFunction) -> GridFunction:
        """The integral term B(u) alone."""
        self._check(u)
        return GridFunction(self.grid, self._kernel_values(u.values.reshape(1, -1))[0])

    def apply(self, u: GridFunction) -> GridFunction:
        """F(u); raises ``ValueError`` where F(u) is not finite."""
        self._check(u)
        return GridFunction(self.grid, self.apply_values(u.values))

    def jacobian(self, u: GridFunction) -> np.ndarray:
        """Dense derivative matrix F'(u) = K + diag(g'(u)), with the kernel
        matrix K_ij = w_j * exp(-|x_i - x_j|); an O(n^2) diagnostic."""
        self._check(u)
        n = self.grid.n
        if self.kind == "identity":
            return np.eye(n)
        x = self.grid.nodes
        jac = np.exp(-np.abs(x[:, None] - x[None, :])) * self.grid.weights[None, :]
        if self._gprime is not None:
            jac[np.diag_indices(n)] += self._gprime(u.values)
        return jac

    def solve_shifted_values(self, values: np.ndarray, a, rhs: np.ndarray) -> np.ndarray:
        """Solve (F'(u) + a*I) s = rhs in O(n) on raw node values, unchecked.

        ``values`` and ``rhs`` are one row of node values or a stack of rows
        ``(S, n)``, each row its own system; ``a`` is a scalar or a column
        ``(S, 1)`` of per-row shifts.  Like :meth:`apply_values` it leaves
        numpy's floating-point warnings to the caller.

        F'(u) + a*I = E W + D with W = diag(w) and D = diag(g'(u) + a).
        Multiplying by T = (1 - rho^2) E^{-1} and writing y = D s gives the
        tridiagonal system (T + (1 - rho^2) W D^{-1}) y = T rhs.  T is
        symmetric positive definite, and so is the whole matrix when D > 0,
        as it is for every monotone model and a > 0: LAPACK ``dpttrf``
        factors it as L D' L^T with no pivoting, ``dpttrs`` solves for y,
        and s = y / D.  T rhs is formed row by row, from each row's own
        entries.  Only the factor sees the stack whole: the rows go to
        ``dpttrf`` as one block-diagonal system of S*n unknowns whose
        couplings across row boundaries are zero, the only place those zero
        couplings live, and a zero coupling splits L D' L^T into independent
        blocks, so every row's solution is bit for bit the one it has alone.
        Multiplying by T amplifies rounding by about eps/h^2: the 2-norm
        relative residual of this one solve is at most about 0.15 eps/h^2,
        3.4e-11 at n = 1000.
        On grids of up to 1000 points that is the step; on finer ones, where
        it could pass the 1e-10 bound, one step of iterative refinement
        against the O(n) operator follows, a second ``dpttrs`` with the same
        factor, and brings the residual back to rounding level: about 2e-13
        at n = 10^5 for a smooth right-hand side.  Near the first-kind limit
        it has a floor: for a random right-hand side and a <= 1e-12 on the
        linear model the refined residual is 5e-11 to 1.5e-10 at n = 10^4
        and 2e-9 to 3e-9 at n = 10^5, against 5e-11 at a = 1e-8.  The floor
        is the solve's, not the residual's: the residual summed in extended
        precision gives the same values, and a second refinement step does
        not lower it at n = 10^5.  So the tested 1e-10 bound on the relative
        residual holds for a >= 1e-8; below that the tests pin the floor at
        n = 10^4 to 5e-10.  The row length n alone picks the branch,
        so a row of a stack still gives what it gives alone.  A row whose diagonal passes 2^64 (a D below
        2.3e-20 or less) has its T rhs scaled by a power of 2 first, so that
        a tiny D does not push y into the subnormal range, where it would
        lose digits; the scaling is exact and chosen from that row alone.
        The identity model's step is rhs / (1 + a).

        Raises :class:`SingularShiftError` at, in this order, a non-finite
        D or rhs or a D so small that (1 - rho^2) w / D overflows, a
        non-positive pivot, or a non-finite solution; it names the first
        such row and the node within it.
        """
        return self._newton_step(values, a, rhs)[0]

    def _newton_step(self, values, a, rhs):
        # (s, L s): the step of solve_shifted_values and its image under F's
        # linear part, read off the Newton equation (L + D) s = rhs as
        # L s = rhs - D s, one pass over the D the solve formed; the identity
        # model's L s is s.  It is L s to the solve's own accuracy, and the
        # Newton loop's line search takes its trials' F from it.  Both are
        # computed on a stack (S, n), S = 1 for one row, and come back in the
        # shape of ``values``.
        n = self.grid.n
        rows, b = values.reshape(-1, n), rhs.reshape(-1, n)
        if self.kind == "identity":
            step = (b / (1.0 + a)).reshape(values.shape)
            if not _all_finite(step):
                raise _singular(n, np.flatnonzero(~np.isfinite(step))[0])
            return step, step.copy()
        if self._gprime is None:
            shift = np.broadcast_to(a, rows.shape)
        else:
            shift = self._gprime(rows)
            shift += a
        diag = self._cw / shift
        diag += self._t_diag
        if not (_all_finite(shift) and _all_finite(diag) and _all_finite(b)):
            # checked first: an infinite D, or one so small that W D^{-1}
            # overflows, would give the finite but wrong step y / D = 0 there
            bad = ~np.isfinite(shift) | ~np.isfinite(diag) | ~np.isfinite(b)
            raise _singular(n, np.flatnonzero(bad)[0])
        # each row's largest diagonal entry, read before dpttrf overwrites
        # diag with the pivots
        top = None
        if diag.max() > _RESCALE_DIAG:
            top = diag.max(axis=1, keepdims=True)
        # dpttrf overwrites d with the pivots and e with L's off-diagonal: both
        # are this step's own
        d, e, info = dpttrf(diag.ravel(), self._coupling(diag.size), 1, 1)
        if info:
            # info > 0 is the 1-based index of the first non-positive pivot,
            # counted across the stack; info < 0, a rejected argument, names
            # node 0 of row 0
            raise _singular(n, max(info - 1, 0))
        step = self._solve_factored(d, e, shift, b, top)
        # a non-finite step is not refined: the factor's forward sweep would
        # carry it across a zero coupling into the next row (0 * inf is nan)
        if n > _UNREFINED_MAX_N and _all_finite(step):
            correction = b - self._kernel_values(step)
            correction -= shift * step
            step += self._solve_factored(d, e, shift, correction, top)
        if not _all_finite(step):
            raise _singular(n, np.flatnonzero(~np.isfinite(step))[0])
        return step.reshape(values.shape), (b - shift * step).reshape(values.shape)

    def _coupling(self, size):
        # the factor's off-diagonal for a flattened stack of ``size`` nodes,
        # a copy for dpttrf to overwrite: -rho within a row and 0 across row
        # boundaries, so the factor splits into one block per row.  The array
        # for the largest stack so far is kept, and its prefix serves every
        # smaller stack.
        if self._couplings.size < size - 1:
            n = self.grid.n
            self._couplings = np.full(size - 1, -self._rho)
            self._couplings[n - 1::n] = 0.0
        return self._couplings[:size - 1].copy()

    def _solve_factored(self, d, e, shift, rhs, top):
        # s = y / D for (T + (1 - rho^2) W D^{-1}) y = T rhs, factored as (d, e),
        # on a stack (S, n).  ``top`` holds each row's largest diagonal entry,
        # or is None when no row's passes _RESCALE_DIAG.
        # T acts on each row on its own: its diagonal term less rho times each
        # neighbour.  The two subtractions run along the flattened stack, where
        # numpy's loops are contiguous (on (S, n) views they made batched
        # passes 4-7% slower), and reach across row boundaries there; each
        # row's first and last entries, whose rows of T have a diagonal of 1
        # and one neighbour, are then written from the row alone.
        p = self._rho * rhs
        b = self._t_diag * rhs
        flat, q = b.ravel(), p.ravel()
        flat[1:] -= q[:-1]
        flat[:-1] -= q[1:]
        b[:, 0] = rhs[:, 0] - p[:, 1]
        b[:, -1] = rhs[:, -1] - p[:, -2]
        if top is not None:
            # A row past _RESCALE_DIAG solves for 2^k y, with T rhs scaled so
            # that its largest entry is about sqrt(top): that keeps 2^k y, about
            # 2^k T rhs / top where D is tiny, far from both ends of the double
            # range.  Scaling by a power of 2 is exact, so a row whose y was
            # not subnormal gets the same bits as unscaled.
            k = np.frexp(top)[1] // 2 - np.frexp(np.abs(b).max(axis=1, keepdims=True))[1]
            k = np.where(top > _RESCALE_DIAG, np.maximum(k, 0), 0)
            b = np.ldexp(b, k)
        step = dpttrs(d, e, b.ravel(), 1)[0].reshape(shift.shape)
        step /= shift
        return step if top is None else np.ldexp(step, -k)

def matvec(matrix: np.ndarray, w: GridFunction) -> GridFunction:
    """Apply a dense matrix to a grid function's values."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (w.grid.n, w.grid.n):
        raise GridMismatchError(
            f"matrix shape {matrix.shape} does not match grid n={w.grid.n}"
        )
    return GridFunction(w.grid, matrix @ w.values)
