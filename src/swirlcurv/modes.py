"""Axisymmetric divergence-free perturbation modes and their energies.

A mode with z-wavenumber n is the velocity field

    Y_n = e^{inz} [ -(i n / r) g(r) d/dr + (g'(r)/r) d/dz + f(r) d/dtheta ].

Regularity at the axis requires g(0) = f(0) = 0 and, for finite kinetic
energy, g'(0) = 0 (so g = O(r^2)); modes with n != 0 must also satisfy
g(1) = 0 so the field stays tangent to the boundary.

Inner products use the cylindrical metric (|d/dr| = |d/dz| = 1,
|d/dtheta| = r) and the volume element r dr dtheta dz over the solid flat
torus, giving a 4 pi^2 prefactor on radial integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegularityError
from .profile import RadialProfile
from .quadrature import quad_real
from .radial import ComplexRadialFunction

__all__ = [
    "FourierMode",
    "swirl_energy",
    "mode_energy",
    "cross_inner_product",
]

_AXIS_TOL = 1e-9
FOUR_PI_SQ = 4.0 * np.pi ** 2


@dataclass
class FourierMode:
    """One perturbation mode (n, g, f); immutable after construction."""

    n: int
    g: ComplexRadialFunction
    f: ComplexRadialFunction

    @property
    def knots(self):
        return np.concatenate([self.g.knots, self.f.knots])

    def _samples(self):
        """g, g' and f at r = j/64, j = 0 ... 64 (0 the axis, 64 the wall), evaluated
        once, and the tolerance of the axis and wall conditions: ``_AXIS_TOL`` times
        the field's scale, the largest |g|, |g'| or |f| at r > 0 (at least 1e-300)."""
        r = np.linspace(0.0, 1.0, 65)
        g, dg, f = self.g(r), self.g.derivative(r), self.f(r)
        scale = max(np.max(np.abs(g[1:])), np.max(np.abs(dg[1:])), np.max(np.abs(f[1:])), 1e-300)
        return g, dg, f, _AXIS_TOL * float(scale)

    @property
    def finite_energy(self) -> bool:
        """g'(0) = 0, without which the kinetic energy diverges at the axis."""
        _, dg, _, tol = self._samples()
        return not abs(dg[0]) > tol

    def validate(self) -> None:
        """Check g(0) = f(0) = 0 and, for n != 0, g(1) = 0; raises on violation.
        Finite energy is checked where it is needed (``finite_energy``)."""
        g, _, f, tol = self._samples()
        if abs(g[0]) > tol:
            raise RegularityError(f"g(0) = {complex(g[0])} must vanish on the axis")
        if abs(f[0]) > tol:
            raise RegularityError(f"f(0) = {complex(f[0])} must vanish on the axis")
        if self.n != 0 and abs(g[-1]) > tol:
            raise RegularityError(f"g(1) = {complex(g[-1])} must vanish for n = {self.n} != 0")


def swirl_energy(p: RadialProfile) -> float:
    """<<X, X>> = 4 pi^2 * int_0^1 r^3 u(r)^2 dr."""
    return FOUR_PI_SQ * quad_real(lambda r: r ** 3 * p.u(r) ** 2, 0.0, 1.0, points=p.u.knots)


def mode_energy(m: FourierMode) -> float:
    """<<Y_n, conj(Y_n)>> = 4 pi^2 * int [ (n^2 |g|^2 + |g'|^2)/r + r^3 |f|^2 ] dr."""
    if not m.finite_energy:
        raise RegularityError("mode energy diverges: g'(0) != 0")

    def integrand(r):
        g2 = m.n ** 2 * np.abs(m.g(r)) ** 2 + np.abs(m.g.derivative(r)) ** 2
        return g2 / r + r ** 3 * np.abs(m.f(r)) ** 2

    return FOUR_PI_SQ * quad_real(integrand, 0.0, 1.0, points=m.knots)


def cross_inner_product(p: RadialProfile, m: FourierMode) -> float:
    """<<X, Y_n>>; zero unless n = 0 by z-orthogonality."""
    if m.n != 0:
        return 0.0
    val = quad_real(lambda r: r ** 3 * p.u(r) * m.f(r), 0.0, 1.0,
                    points=np.concatenate([p.u.knots, m.knots]))
    return FOUR_PI_SQ * val.real
