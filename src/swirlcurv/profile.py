"""Swirl profiles u(r) and the positivity criteria attached to them.

A swirl profile generates the steady velocity field u(r) d/dtheta on the
solid flat torus.  Two scalar diagnostics drive everything downstream:

* vorticity  omega(r) = 2 u + r u'   (curl of the swirl field is omega d/dz)
* curvature density  eta(r) = d/dr (r u^2) = u^2 + 2 r u u'

``classify_criteria`` decides, up to a numerical tolerance, whether eta > 0
(positive curvature in every section containing the swirl field) and whether
u*omega > 0 (hypothesis for the conjugate-point construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .radial import RadialFunction

__all__ = [
    "RadialProfile",
    "CriteriaReport",
    "CRITERIA_GRID",
    "classify_criteria",
]

POSITIVITY_TOL_SCALE = 1e-12
# the criteria's 256 Chebyshev points on [0, 1], both ends included
CRITERIA_GRID = 0.5 * (1.0 - np.cos(np.pi * np.arange(256) / 255))


class RadialProfile:
    """Angular velocity profile u(r) with derived vorticity and curvature density."""

    def __init__(self, u: RadialFunction):
        self.u = u

    def omega(self, r):
        return 2.0 * self.u(r) + np.asarray(r, dtype=float) * self.u.derivative(r)

    def eta(self, r):
        u = self.u(r)
        return u * u + 2.0 * np.asarray(r, dtype=float) * u * self.u.derivative(r)


@dataclass
class CriteriaReport:
    eta_strictly_positive: bool
    eta_nonnegative: bool
    u_omega_positive: bool
    eta_min: float
    u_omega_min: float
    tolerance: float
    witness_points: list = field(default_factory=list)
    """Dicts {criterion, r, value}: for each failing criterion its minimum, then
    every root found, a grid zero or a sign change bisected to 1e-12 in r and on
    until |value| <= ``tolerance`` (or the bracket is two adjacent floats)."""


def _bisect_root(fn, a, b, fa, value_tol, tol=1e-12):
    """A root of ``fn`` in [a, b], fa * fn(b) < 0: bisected to ``tol`` in r and
    on until |fn| <= ``value_tol`` or the bracket is two adjacent floats."""
    while True:
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if (b - a < tol and abs(fm) <= value_tol) or mid in (a, b):
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm


def _scan(fn, grid, vals, tol):
    """The values ``vals`` of ``fn`` on ``grid`` followed by its roots there:
    exact zeros at grid points and a root bisected to |value| <= ``tol`` in
    every sign change, where ``fn`` is called.  A zero value is +0.0: u omega
    and eta take the same values, to the bit, for u and -u."""
    change = np.sign(vals[:-1]) == -np.sign(vals[1:])   # by sign: a product can overflow
    hits = np.flatnonzero((vals == 0.0) | np.append(change, False))
    roots = [grid[i] if vals[i] == 0.0
             else _bisect_root(fn, grid[i], grid[i + 1], vals[i], tol)
             for i in hits]
    return (np.concatenate([grid, roots]),
            np.concatenate([vals, [float(fn(r)) for r in roots]]) + 0.0)


def classify_criteria(p: RadialProfile) -> CriteriaReport:
    """Evaluate the positivity criteria on ``CRITERIA_GRID`` plus detected roots.

    "Strictly positive" means min > tol with
    tol = POSITIVITY_TOL_SCALE * max |eta| on the grid, without an absolute
    floor: a * u has the flags of u for every a != 0.  u and u' are evaluated
    once on the grid, and eta and u omega formed from them in the operation
    order of ``RadialProfile.eta`` and ``RadialProfile.omega``.
    """
    r = CRITERIA_GRID
    u, du = p.u(r), p.u.derivative(r)
    eta, uo = u * u + 2.0 * r * u * du, u * (2.0 * u + r * du)
    tol = POSITIVITY_TOL_SCALE * float(np.max(np.abs(eta)))
    eta_pts, eta_vals = _scan(p.eta, r, eta, tol)
    uo_pts, uo_vals = _scan(lambda x: p.u(x) * p.omega(x), r, uo, tol)

    eta_min_i = int(np.argmin(eta_vals))
    uo_min_i = int(np.argmin(uo_vals))
    eta_min = float(eta_vals[eta_min_i])
    uo_min = float(uo_vals[uo_min_i])

    report = CriteriaReport(
        eta_strictly_positive=eta_min > tol,
        eta_nonnegative=eta_min >= -tol,
        u_omega_positive=uo_min > tol,
        eta_min=eta_min,
        u_omega_min=uo_min,
        tolerance=tol,
    )
    for name, ok, pts, vals, i in (
            ("eta", report.eta_strictly_positive, eta_pts, eta_vals, eta_min_i),
            ("u_omega", report.u_omega_positive, uo_pts, uo_vals, uo_min_i)):
        if not ok:
            # the minimum first, then every other root found (they follow the grid values)
            roots = [k for k in range(CRITERIA_GRID.size, pts.size) if pts[k] != pts[i]]
            report.witness_points += [{"criterion": name, "r": float(pts[k]),
                                       "value": float(vals[k])} for k in [i, *roots]]
    return report
