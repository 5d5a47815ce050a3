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

    def field_scale(self) -> float:
        r = np.linspace(1.0 / 64, 1.0, 64)
        return float(max(np.max(np.abs(self.g(r))), np.max(np.abs(self.g.derivative(r))),
                         np.max(np.abs(self.f(r))), 1e-300))

    @property
    def finite_energy(self) -> bool:
        """g'(0) = 0, without which the kinetic energy diverges at the axis."""
        return not abs(self.g.derivative(0.0)) > _AXIS_TOL * self.field_scale()

    def validate(self) -> None:
        """Check g(0) = f(0) = 0 and, for n != 0, g(1) = 0; raises on violation.
        Finite energy is checked where it is needed (``finite_energy``)."""
        tol = _AXIS_TOL * self.field_scale()
        if abs(self.g(0.0)) > tol:
            raise RegularityError(f"g(0) = {complex(self.g(0.0))} must vanish on the axis")
        if abs(self.f(0.0)) > tol:
            raise RegularityError(f"f(0) = {complex(self.f(0.0))} must vanish on the axis")
        if self.n != 0 and abs(self.g(1.0)) > tol:
            raise RegularityError(
                f"g(1) = {complex(self.g(1.0))} must vanish for n = {self.n} != 0")


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
