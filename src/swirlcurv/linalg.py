"""The two dense linear-algebra kernels the package needs, on numpy alone.

``solve_banded`` solves a tridiagonal system by odd-even cyclic reduction
(Hockney, J. ACM 12, 1965; Golub & Van Loan, *Matrix Computations*, 4th ed.,
sec. 4.5.3), whose O(log n) levels are whole-array operations; ``eigh``
reduces a symmetric-definite pencil to a standard eigenproblem by Cholesky
(Golub & Van Loan, sec. 8.7.2).  Both keep the calling conventions of their
``scipy.linalg`` namesakes for the arguments used here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["solve_banded", "eigh"]


# rows of the last reduced system, which is inverted densely: below this size
# a level costs more in call overhead than in arithmetic
_DENSE = 65


def _reduce(lower, d, upper):
    """Cyclic-reduction levels of the (2^l + 1)-row tridiagonal system with
    sub-, main and super-diagonals ``lower``, ``d``, ``upper``.  Each level
    eliminates the odd rows from the even ones and keeps, as multipliers of
    -1/d of the odd rows, what ``_substitute`` needs; the last system, of at
    most ``_DENSE`` rows, is returned inverted."""
    levels = []
    while d.size > _DENSE:
        ninv = -1.0 / d[1::2]
        alpha, gamma = lower[1::2] * ninv, upper[::2] * ninv
        d_even = d[::2].copy()
        d_even[1:] += alpha * upper[1::2]
        d_even[:-1] += gamma * lower[::2]
        levels.append((alpha, gamma, ninv, lower[::2] * ninv, upper[1::2] * ninv))
        lower, d, upper = alpha * lower[::2], d_even, gamma * upper[1::2]
    return levels, np.linalg.inv(np.diag(d) + np.diag(lower, -1) + np.diag(upper, 1))


def _substitute(levels, last, b):
    """Overwrite ``b``, right-hand sides along its last axis, with the solution:
    reduce down the levels in place (the rows a level eliminates stay as they
    are), solve the last system, then fill the eliminated rows back in."""
    s = 1
    for alpha, gamma, *_ in levels:
        odd, even = b[:, s::2 * s], b[:, ::2 * s]
        even[:, 1:] += alpha * odd
        even[:, :-1] += gamma * odd
        s *= 2
    # a product and sum rather than BLAS, so each column comes out the same alone or not
    b[:, ::s] = np.sum(last * b[:, None, ::s], axis=-1)
    for _, _, ninv, ra, rc in reversed(levels):
        s //= 2
        even, odd = b[:, ::2 * s], b[:, s::2 * s]
        odd *= ninv
        np.subtract(ra * even[:, :-1] + rc * even[:, 1:], odd, out=odd)
    return b


def solve_banded(l_and_u, ab, b):
    """x with A x = b for tridiagonal A in LAPACK banded storage, as
    ``scipy.linalg.solve_banded((1, 1), ab, b)``: ab[0, 1:] is the
    super-diagonal, ab[1] the diagonal and ab[2, :-1] the sub-diagonal.

    ``b`` may carry trailing axes, one system per column.  The system is
    padded with identity rows to 2^l + 1 rows and reduced once; one step of
    iterative refinement then removes most of the error that the reduction's
    growing multipliers leave.  No pivoting: A should be diagonally dominant,
    as the spline and pressure matrices are.
    """
    if tuple(l_and_u) != (1, 1):
        raise ValueError("solve_banded handles tridiagonal (1, 1) systems only")
    ab, b = np.asarray(ab), np.asarray(b)
    n = ab.shape[1]
    if ab.shape[0] != 3 or b.shape[:1] != (n,):
        raise ValueError("ab must have shape (3, n) and b a leading axis of n")
    m = (1 << max(n - 2, 0).bit_length()) + 1
    d, lower, upper = np.ones(m, ab.dtype), np.zeros(m - 1, ab.dtype), np.zeros(m - 1, ab.dtype)
    d[:n], lower[:n - 1], upper[:n - 1] = ab[1], ab[2, :-1], ab[0, 1:]
    rhs = np.zeros((b[0].size, m), dtype=np.result_type(ab, b))
    rhs[:, :n] = b.reshape(n, -1).T
    levels, last = _reduce(lower, d, upper)
    x = _substitute(levels, last, rhs.copy())
    rhs -= d * x
    rhs[:, 1:] -= lower * x[:, :-1]
    rhs[:, :-1] -= upper * x[:, 1:]
    x += _substitute(levels, last, rhs)
    return x[:, :n].T.reshape(b.shape)


def eigh(a, b, subset_by_index):
    """Eigenvalues ``subset_by_index`` = [lo, hi] (ascending) of the pencil
    a v = w b v, a symmetric, b symmetric positive definite, and their
    b-orthonormal eigenvectors as columns, as ``scipy.linalg.eigh``.

    With b = L L^T, the eigenvalues are those of L^-1 a L^-T and each vector
    is L^-T times an orthonormal eigenvector of that matrix.
    """
    lo, hi = subset_by_index
    inv_chol = np.linalg.inv(np.linalg.cholesky(b))
    w, y = np.linalg.eigh(inv_chol @ a @ inv_chol.T)
    return w[lo:hi + 1], inv_chol.T @ y[:, lo:hi + 1]
