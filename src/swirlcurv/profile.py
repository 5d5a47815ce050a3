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

from .errors import ValidationError
from .radial import RadialFunction

__all__ = [
    "RadialProfile",
    "CriteriaReport",
    "chebyshev_grid",
    "classify_criteria",
]

POSITIVITY_TOL_SCALE = 1e-12


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
    """Each witness is a dict {criterion, r, value} recording a failing point."""


def chebyshev_grid(count: int) -> np.ndarray:
    # Chebyshev points mapped to [0,1], endpoints included
    k = np.arange(count)
    pts = 0.5 * (1.0 - np.cos(np.pi * k / (count - 1)))
    return np.union1d(pts, [0.0, 1.0])


def _bisect_root(fn, a, b, fa, fb, tol=1e-12):
    # plain bisection; fa*fb < 0 guaranteed by the caller
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if b - a < tol:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _scan(fn, grid):
    vals = np.array([float(fn(r)) for r in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(_bisect_root(fn, grid[i], grid[i + 1], vals[i], vals[i + 1]))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    pts = np.concatenate([grid, roots]) if roots else grid
    all_vals = np.concatenate([vals, [float(fn(r)) for r in roots]]) if roots else vals
    return pts, all_vals, roots


def classify_criteria(p: RadialProfile, sample_count: int = 256,
                      tol_scale: float = POSITIVITY_TOL_SCALE) -> CriteriaReport:
    """Evaluate the positivity criteria on a Chebyshev grid plus detected roots.

    "Strictly positive" means min > tol with tol = tol_scale * (1 + max |eta|)
    on the grid; loosening tol_scale can only keep true flags true.
    """
    if sample_count < 2:
        raise ValidationError("sample_count must be >= 2")
    grid = chebyshev_grid(sample_count)

    uo_fn = lambda r: p.u(r) * p.omega(r)
    eta_pts, eta_vals, eta_roots = _scan(p.eta, grid)
    uo_pts, uo_vals, uo_roots = _scan(uo_fn, grid)

    tol = tol_scale * (1.0 + float(np.max(np.abs(eta_vals))))
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
    for name, ok, pts, i, value, roots, fn in (
            ("eta", report.eta_strictly_positive, eta_pts, eta_min_i, eta_min, eta_roots, p.eta),
            ("u_omega", report.u_omega_positive, uo_pts, uo_min_i, uo_min, uo_roots, uo_fn)):
        if not ok:
            report.witness_points.append({"criterion": name, "r": float(pts[i]), "value": value})
            report.witness_points += [{"criterion": name, "r": float(x), "value": float(fn(x))}
                                      for x in roots]
    return report
