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
from .profile import CRITERIA_GRID, RadialProfile
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
# the radii of a mode's one sample: the criteria grid, on which a config's modes
# must be finite, then r = j/64, j = 0 ... 64, from column _AXIS (r = 0) to the
# last (r = 1), on which the axis and wall conditions are read
SAMPLE_GRID = np.concatenate([CRITERIA_GRID, np.linspace(0.0, 1.0, 65)])
_AXIS = CRITERIA_GRID.size


@dataclass
class FourierMode:
    """One perturbation mode (n, g, f); immutable after construction."""

    n: int
    g: ComplexRadialFunction
    f: ComplexRadialFunction

    def __post_init__(self):
        """Sample g, g', f and f' once, as the rows of ``samples`` on ``SAMPLE_GRID``
        (a non-finite value is kept, for the config to refuse), and set ``tol``, the
        tolerance of the axis and wall conditions: ``_AXIS_TOL`` times the field's
        scale, the largest |g|, |g'| or |f| at r = j/64 > 0 (at least 1e-300)."""
        with np.errstate(all="ignore"):
            self.samples = np.array([self.g(SAMPLE_GRID), self.g.derivative(SAMPLE_GRID),
                                     self.f(SAMPLE_GRID), self.f.derivative(SAMPLE_GRID)])
            scale = np.max(np.abs(self.samples[:3, _AXIS + 1:]), initial=1e-300)
        self.tol = _AXIS_TOL * float(scale)

    @property
    def knots(self):
        return np.concatenate([self.g.knots, self.f.knots])

    @property
    def finite_energy(self) -> bool:
        """g'(0) = 0, without which the kinetic energy diverges at the axis."""
        return not abs(self.samples[1, _AXIS]) > self.tol

    def validate(self) -> None:
        """Check g(0) = f(0) = 0 and, for n != 0, g(1) = 0; raises on violation.
        Finite energy is checked where it is needed (``finite_energy``)."""
        g0, g1, f0 = self.samples[0, _AXIS], self.samples[0, -1], self.samples[2, _AXIS]
        if abs(g0) > self.tol:
            raise RegularityError(f"g(0) = {complex(g0)} must vanish on the axis")
        if abs(f0) > self.tol:
            raise RegularityError(f"f(0) = {complex(f0)} must vanish on the axis")
        if self.n != 0 and abs(g1) > self.tol:
            raise RegularityError(f"g(1) = {complex(g1)} must vanish for n = {self.n} != 0")


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
