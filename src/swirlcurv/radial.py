"""Radial functions on [0, 1] with exact (or spline) first derivatives.

Three interchangeable representations back every scalar radial function in
the package: polynomial coefficients, a differentiable expression AST, or a
sampled table interpolated by a natural cubic spline (``TableFunction``).
Complex-valued radial data (mode coefficients g_n, f_n) is stored as a
real/imaginary pair.  ``bspline_basis`` evaluates the B-splines of the
pressure oracle's Galerkin basis.  Every evaluation takes one array path: a
scalar radius is a 0-d array, and its value a numpy scalar.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import expr as expr_mod
from .errors import DomainError
from .linalg import solve_banded

__all__ = [
    "bspline_basis",
    "RadialFunction",
    "PolynomialFunction",
    "ExpressionFunction",
    "TableFunction",
    "ComplexRadialFunction",
]

_DOMAIN_SLACK = 1e-12


def _check_domain(r):
    """r as a float array clipped to [0, 1]; DomainError past the slack (NaN passes)."""
    arr = np.asarray(r, dtype=float)
    # fmin/fmax skip NaN: a NaN radius passes and never hides a bad one
    lo = np.fmin.reduce(arr, axis=None, initial=0.0)
    hi = np.fmax.reduce(arr, axis=None, initial=1.0)
    if lo < -_DOMAIN_SLACK or hi > 1.0 + _DOMAIN_SLACK:
        bad = arr[(arr < -_DOMAIN_SLACK) | (arr > 1.0 + _DOMAIN_SLACK)]
        raise DomainError(f"radius {float(bad[0])} outside [0, 1]")
    return np.clip(arr, 0.0, 1.0) if lo < 0.0 or hi > 1.0 else arr


def bspline_basis(t, degree, x, nu=0):
    """The ``degree`` + 1 B-splines on the knots ``t`` that can be nonzero at
    each x, and their derivatives up to order ``nu`` <= ``degree``: (first, values)
    with values[k, j] = the k-th derivative of B_{first + j} at x, values of shape
    (nu + 1, degree + 1) + x.shape.

    The span t[i] <= x < t[i + 1] (the last nonempty one at the right end) is
    found once, and the knots around it are gathered once; the Cox-de Boor
    recursion (de Boor 1978, ch. X) then raises the degree by row slices.
    The k-th derivative differentiates in the last k steps instead, each to a
    degree d: B'_j = d (B_j / (t_{j+d} - t_j) - B_{j+1} / (t_{j+d+1} - t_{j+1}))
    on degree d - 1.  So the orders share one recursion, and order k branches off
    the values k steps before the end.  Each denominator spans the span around
    x, so it is never 0.
    """
    x = np.asarray(x, dtype=float)
    i = np.asarray(np.searchsorted(t, x, side="right") - 1).clip(degree, t.size - degree - 2)
    steps = np.arange(1, degree + 1).reshape((-1,) + (1,) * x.ndim)
    right = t[i + steps] - x                  # t[i + 1 .. i + p] - x
    left = x - t[i + 1 - steps[::-1]]         # x - t[i - p + 1 .. i]
    b = np.zeros((1, degree + 1) + x.shape)   # b[k]: the k-th derivatives
    b[0, 0] = 1.0
    for d in range(1, degree + 1):
        if d + nu > degree:   # order degree - d + 1 branches off the values
            b = np.concatenate([b[:1], b])
        w = b[:, :d] / (right[:d] + left[degree - d:])
        b[0, :d] = right[:d] * w[0]
        b[0, 1:d + 1] += left[degree - d:] * w[0]
        b[1:, :d] = -d * w[1:]
        b[1:, 1:d + 1] += d * w[1:]
    return i - degree, b


class RadialFunction:
    """A real scalar function of r in [0, 1] and its first derivative; ``knots``
    are the radii where it is only piecewise smooth (quadrature breakpoints).
    ``second_derivative`` is only a name that ``bench/tracing.py`` wraps."""

    knots = ()

    def __call__(self, r):
        raise NotImplementedError

    def derivative(self, r):
        raise NotImplementedError

    def second_derivative(self, r):
        raise NotImplementedError


class PolynomialFunction(RadialFunction):
    """Polynomial in r with ascending coefficients; the derivative is exact."""

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        self.coeffs = c
        self._d1 = c[1:] * np.arange(1, c.size) if c.size > 1 else np.zeros(1)   # j c_j

    def __call__(self, r):
        return npoly.polyval(_check_domain(r), self.coeffs)

    def derivative(self, r):
        return npoly.polyval(_check_domain(r), self._d1)


class ExpressionFunction(RadialFunction):
    """Radial function given by an expression string; the derivative is exact,
    the slope of the expression's forward-mode ``jet``."""

    def __init__(self, source: str):
        self.ast = expr_mod.parse_expression(source)

    def __call__(self, r):
        return self.ast.eval(_check_domain(r))

    def derivative(self, r):
        return self.ast.jet(_check_domain(r))[1]


class TableFunction(RadialFunction):
    """Sampled values interpolated by a natural cubic spline: C² piecewise cubic
    through the nodes, with second derivative 0 at r = 0 and r = 1.

    The spline's derivative *defines* the derivative of the profile.  The knot
    slopes solve one tridiagonal system (de Boor, *A Practical Guide to Splines*,
    1978, ch. IV), assembled and evaluated in the same operation order as
    ``scipy.interpolate.CubicSpline(bc_type="natural")``, so the two agree to
    round-off.
    """

    def __init__(self, r_nodes, values):
        x, y = np.asarray(r_nodes, dtype=float), np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 4:
            raise ValueError("need matching 1-d arrays with at least 4 nodes")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("spline nodes and values must be finite")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("spline nodes must be strictly increasing")
        if x[0] > _DOMAIN_SLACK or x[-1] < 1.0 - _DOMAIN_SLACK:
            raise ValueError("table nodes must span [0, 1]")
        slope = np.diff(y) / dx
        ab, b = np.zeros((3, x.size)), np.empty_like(y)
        ab[0, 2:], ab[1, 1:-1], ab[2, :-2] = dx[:-1], 2 * (dx[:-1] + dx[1:]), dx[1:]
        ab[1, 0], ab[0, 1], ab[1, -1], ab[2, -2] = 2 * dx[0], dx[0], 2 * dx[-1], dx[-1]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0], b[-1] = 3 * (y[1] - y[0]), 3 * (y[-1] - y[-2])
        s = solve_banded((1, 1), ab, b)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.knots = x
        self._c = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])

    def _piece(self, r):
        """d = r - x[i] for the piece x[i] <= r < x[i + 1] of each r, and that
        piece's coefficients of d^3, d^2, d and 1."""
        r = _check_domain(r)
        i = np.searchsorted(self.knots[1:-1], r, side="right")
        return (r - self.knots.take(i), *self._c.take(i, axis=1))

    def __call__(self, r):
        d, c0, c1, c2, c3 = self._piece(r)
        d2 = d * d
        return c3 + c2 * d + c1 * d2 + c0 * (d2 * d)

    def derivative(self, r):
        d, c0, c1, c2, _ = self._piece(r)
        return c2 + 2 * c1 * d + c0 * (d * d) * 3


class ComplexRadialFunction:
    """Complex radial function real + i imag, stored as its parts."""

    def __init__(self, real: RadialFunction, imag: RadialFunction | None = None):
        self.real = real
        self.imag = imag
        self.knots = np.concatenate([real.knots, () if imag is None else imag.knots])

    def _evaluate(self, method: str, r):
        re = getattr(self.real, method)(r)
        if self.imag is None:
            return re.astype(complex)
        return re + 1j * getattr(self.imag, method)(r)

    def __call__(self, r):
        return self._evaluate("__call__", r)

    def derivative(self, r):
        return self._evaluate("derivative", r)
