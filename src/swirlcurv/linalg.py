"""The banded solver the package needs, on numpy alone.

``solve_banded`` solves a banded system by block Gaussian elimination
without pivoting (Golub & Van Loan, *Matrix Computations*, 4th ed., sec.
4.5.1), one small dense solve per block of rows.  It keeps the calling
convention of ``scipy.linalg.solve_banded`` for the arguments used here, and
takes a stack of problems on leading axes, each solved as alone, bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["solve_banded"]


# rows per block: below this a block step costs more in call overhead than in arithmetic
_BLOCK = 16


def solve_banded(l_and_u, ab, b):
    """x with A x = b for A with l sub- and u super-diagonals in LAPACK banded
    storage, as ``scipy.linalg.solve_banded((l, u), ab, b)``: A[i, j] is
    ab[u + i - j, j].  ``b`` may carry trailing axes, one system per column.
    ``ab`` may carry leading axes, a stack of matrices (..., l + u + 1, n), and
    ``b`` then the same leading axes before its n; each system is solved as
    alone, bit for bit.

    Rows are cut into blocks of s = max(``_BLOCK``, l, u), completed with
    identity rows, so A is block tridiagonal with blocks L_k, D_k, U_k.
    Forward, D_k <- D_k - L_k D_{k-1}^-1 U_{k-1} (and b_k likewise); backward,
    x_k = D_k^-1 (b_k - U_k x_{k+1}).  No pivoting across blocks: A should be
    diagonally dominant or symmetric positive definite, as the spline and
    Galerkin matrices are.
    """
    l, u = l_and_u
    ab, b = np.asarray(ab), np.asarray(b)
    lead, n = ab.shape[:-2], ab.shape[-1]
    if min(l, u) < 0 or ab.shape[-2:-1] != (l + u + 1,) or b.shape[:ab.ndim - 1] != lead + (n,):
        raise ValueError("ab must have shape (..., l + u + 1, n) and b leading axes (..., n)")
    m = int(np.prod(lead))   # systems in the stack
    s = max(_BLOCK, l, u)
    k = -(-n // s)
    # band column s + j holds A's column j, padded with zero columns and the
    # identity rows; row i of block K meets the columns of blocks K - 1 .. K + 1
    # as A[K s + i, (K - 1) s + c] = band[u + s + i - c, K s + c], 0 off the band
    band = np.zeros((m, l + u + 1, (k + 2) * s), ab.dtype)
    band[..., s:s + n], band[:, u, s + n:(k + 1) * s] = ab.reshape(m, l + u + 1, n), 1.0
    i, c = np.arange(s)[:, None], np.arange(3 * s)
    row = u + s + i - c
    blocks = band[:, row.clip(0, l + u), s * np.arange(k)[:, None, None] + c]
    blocks[:, :, (row < 0) | (row > l + u)] = 0
    lower, diag, upper = blocks[..., :s], blocks[..., s:2 * s], blocks[..., 2 * s:]
    rhs = np.zeros((m, k * s, int(np.prod(b.shape[ab.ndim - 1:]))), np.result_type(ab, b))
    rhs[:, :n] = b.reshape(m, n, -1)
    rhs = rhs.reshape(m, k, s, -1)

    d, r, steps = diag[:, 0], rhs[:, 0], []
    for K in range(1, k):
        x = np.linalg.solve(d, np.concatenate([upper[:, K - 1], r], axis=-1))
        steps.append(x)
        lx = lower[:, K] @ x
        d, r = diag[:, K] - lx[..., :s], rhs[:, K] - lx[..., s:]
    x = [np.linalg.solve(d, r)]
    for step in reversed(steps):
        x.append(step[..., s:] - step[..., :s] @ x[-1])
    return np.concatenate(x[::-1], axis=1)[:, :n].reshape(b.shape)

