"""Sectional curvature of sections containing the swirl field.

Two independent routes compute the non-normalized curvature of the plane
spanned by X = u(r) d/dtheta and a mode Y_n:

* the closed Bessel-form
      Kbar = 4 pi^2 int_0^1 (1/r) [ n^2 |g|^2 eta(r) + |H_n(r)|^2 / I1(|n| r)^2 ] dr
  with H_n(r) = int_0^r s^2 f u xi_n'(s) ds, evaluated entirely in scaled
  ratio form so large |n| never overflows;

* an oracle that solves the pressure Neumann problem by finite differences
  (no Bessel functions anywhere) and contracts the curvature tensor against
  the conjugate mode from first principles.

n = 0 modes contribute zero: both covariant-derivative terms in the tensor
are gradients (projected away) and [X, Y_0] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as sp
from scipy.linalg import solve_banded

from .bessel import HomogeneousSolutions
from .errors import (DegenerateSectionError, InvalidModeError, RegularityError,
                     ValidationError)
from .modes import FOUR_PI_SQ, FourierMode, cross_inner_product, mode_energy, swirl_energy
from .profile import RadialProfile
from .quadrature import converge, gauss_nodes, panel_edges, quad_real
from .radial import CubicSpline

__all__ = [
    "PressureSolution",
    "CurvatureResult",
    "pressure_closed_form",
    "pressure_bvp_solve",
    "curvature_mode_closed",
    "curvature_mode_oracle",
    "curvature_total",
    "curvature_normalized",
    "curvature_report",
    "oscillation_study",
]


# ---------------------------------------------------------------------------
# Pressure solutions
# ---------------------------------------------------------------------------

def _scalar_or_array(r, values):
    return complex(values) if np.ndim(r) == 0 else values


@dataclass
class PressureSolution:
    """The Fourier coefficient q_n of the pressure in the Leray projection."""

    n: int
    q: object            # r (number or array) -> complex values
    q_prime: object      # r (number or array) -> complex values
    profile: RadialProfile
    mode: FourierMode

    def ode_residual(self, grid: int = 512) -> float:
        """Max residual of (1/r)(r q')' - n^2 q = -(1/r) d/dr(r^2 f u).

        Derivatives of q are taken by 4th-order central differences with a
        small step, so the residual measures the solution itself rather than
        the differencing.  Normalized by the source-term scale.
        """
        h = 1e-3
        r = np.linspace(2 * h + 1e-3, 1.0 - 2 * h - 1e-3, grid)
        qm2, qm1, q, qp1, qp2 = self.q(r + h * np.arange(-2, 3)[:, None])
        d1 = (qm2 - 8 * qm1 + 8 * qp1 - qp2) / (12 * h)
        d2 = (-qm2 + 16 * qm1 - 30 * q + 16 * qp1 - qp2) / (12 * h * h)

        p, m = self.profile, self.mode
        u = p.u(r)
        f = m.f(r)
        # -(1/r) d/dr (r^2 f u) = -(2 f u + r (f' u + f u'))
        rhs = -(2 * f * u + r * (m.f.derivative(r) * u + f * p.u.derivative(r)))
        resid = d2 + d1 / r - self.n ** 2 * q - rhs
        scale = max(float(np.max(np.abs(rhs))), 1e-300)
        return float(np.max(np.abs(resid)) / scale)


def _knots(p: RadialProfile, m: FourierMode):
    return np.concatenate([p.u.knots, m.knots])


def _carry(p, m, x, kernel, decay, reverse=False):
    """y_k = decay_k y_{k-1} + int s^2 f u kernel_k(s) ds over gap k of the
    ascending radii x, by one Gauss panel per gap; from 0 before the first gap
    (before the last one with ``reverse``)."""
    s, w = gauss_nodes(x)
    increment = np.sum(w * s * s * m.f(s) * p.u(s) * kernel(s), axis=1).tolist()
    decay = decay.tolist()
    out = np.empty(len(increment), dtype=complex)
    acc = 0j
    for k in reversed(range(len(out))) if reverse else range(len(out)):
        acc = decay[k] * acc + increment[k]
        out[k] = acc
    return out


def _h_ratio(p: RadialProfile, m: FourierMode, r):
    """H_n(r) / I1(N r) at ascending radii r > 0, N = |n|.

    H_n(r) = int_0^r s^2 f u N I1(N s) ds, so across the gap to r_k+1 the
    ratio is multiplied by I1(N r_k) / I1(N r_k+1) and gains the gap integral
    of s^2 f u N I1(N s) / I1(N r_k+1).  Both ratios are formed from i1e
    times exp(-N * distance) <= 1, so n = 10^4 cannot overflow.
    """
    N = abs(m.n)
    lo = np.concatenate([[0.0], r[:-1]])
    i1 = sp.i1e(N * r)
    return _carry(p, m, np.concatenate([[0.0], r]),
                  lambda s: N * sp.i1e(N * s) / i1[:, None] * np.exp(-N * (r[:, None] - s)),
                  sp.i1e(N * lo) / i1 * np.exp(-N * (r - lo)))


def _xi_j(p: RadialProfile, m: FourierMode, hs: HomogeneousSolutions, r):
    """xi_n(r) J_n(r) at ascending radii r < 1, carried down from J_n(1) = 0,
    with J_n(r) = -int_r^1 s^2 f u zeta_n'(s) ds and I0 ratios as above."""
    N = hs.N
    hi = np.append(r[1:], 1.0)
    i0 = sp.i0e(N * r)
    return _carry(p, m, np.append(r, 1.0),
                  lambda s: -hs.zeta_prime_scaled(s) * i0[:, None] * np.exp(-N * (s - r[:, None])),
                  i0 / sp.i0e(N * hi) * np.exp(-N * (hi - r)), reverse=True)


def pressure_closed_form(p: RadialProfile, m: FourierMode) -> PressureSolution:
    """q_n = -zeta_n H_n + xi_n J_n, assembled from scaled Bessel products.

    H_n / I1 and xi_n J_n are carried up and down across the Gauss nodes of
    the panel rule joined with the requested radii; the panels are doubled
    until the values at those radii settle.
    """
    if m.n == 0:
        raise InvalidModeError("closed-form pressure requires n != 0")
    hs = HomogeneousSolutions(m.n)
    N = hs.N

    def carried(radii, edges):
        x = np.union1d(gauss_nodes(edges)[0].ravel(), radii)
        out = np.zeros((2, x.size), dtype=complex)
        out[0, x > 0] = _h_ratio(p, m, x[x > 0])
        out[1, x < 1] = _xi_j(p, m, hs, x[x < 1])
        return out[:, np.searchsorted(x, radii)]

    def solve(r, derivative):
        x = np.asarray(r, dtype=float)
        h, t = converge(lambda edges: carried(x.ravel(), edges),
                        panel_edges(0.0, 1.0, _knots(p, m)))
        h, t = h.reshape(x.shape), t.reshape(x.shape)
        with np.errstate(invalid="ignore"):   # the scaled zeta is infinite at r = 0
            if derivative:
                zeta_h = hs.zeta_prime_scaled(x) * sp.i1e(N * x) * h
                t = N * sp.i1e(N * x) / sp.i0e(N * x) * t - x * m.f(x) * p.u(x)
            else:
                zeta_h = hs.zeta_scaled(x) * sp.i1e(N * x) * h
        return _scalar_or_array(r, np.where(x > 0, -zeta_h, 0.0) + t)

    return PressureSolution(m.n, lambda r: solve(r, False), lambda r: solve(r, True), p, m)


def pressure_bvp_solve(p: RadialProfile, m: FourierMode, grid: int = 2048) -> PressureSolution:
    """Second-order finite-difference solution of the pressure Neumann problem.

    Regularity at the axis is imposed through the even extension (q'(0) = 0,
    with the q'/r term resolved by l'Hopital at r = 0); Richardson
    extrapolation over grids N and 2N upgrades the interior accuracy to
    fourth order.  Completely independent of the Bessel route.
    """
    if m.n == 0:
        raise InvalidModeError("pressure BVP requires n != 0")
    if grid < 64:
        raise ValidationError("grid must be >= 64")
    beta = complex(-m.f(1.0) * float(p.u(1.0)))

    def solve(N):
        h = 1.0 / N
        r = np.linspace(0.0, 1.0, N + 1)
        u = np.asarray(p.u(r), dtype=float)
        up = np.asarray(p.u.derivative(r), dtype=float)
        f = np.asarray(m.f(r), dtype=complex)
        fp = np.asarray(m.f.derivative(r), dtype=complex)
        rhs = -(2 * f * u + r * (fp * u + f * up))
        n2 = m.n ** 2

        ab = np.zeros((3, N + 1), dtype=complex)
        upper, diag, lower = ab   # banded storage rows, as views
        b = np.array(rhs, dtype=complex)

        # axis row: 4 (q1 - q0)/h^2 - n^2 q0 = rhs(0)  (from 2 q'' - n^2 q)
        diag[0] = -4.0 / h ** 2 - n2
        upper[1] = 4.0 / h ** 2
        # interior rows
        ri = r[1:N]
        lower[0:N - 1] = 1.0 / h ** 2 - 1.0 / (2 * h * ri)
        diag[1:N] = -2.0 / h ** 2 - n2
        upper[2:N + 1] = 1.0 / h ** 2 + 1.0 / (2 * h * ri)
        # boundary row at r = 1 with ghost point and q'(1) = beta
        lower[N - 1] = 2.0 / h ** 2
        diag[N] = -2.0 / h ** 2 - n2
        b[N] = rhs[N] - beta * (2.0 / h + 1.0)
        return r, solve_banded((1, 1), ab, b)

    r1, q1 = solve(grid)
    r2, q2 = solve(2 * grid)
    q_extrap = (4.0 * q2[::2] - q1) / 3.0
    # one real spline per column (real, imaginary part), clamped to q'(0) = 0, q'(1) = beta
    spline = CubicSpline(r1, np.stack([q_extrap.real, q_extrap.imag], axis=-1),
                         ((1, 0.0), (1, [beta.real, beta.imag])))

    def q(r, nu=0):
        parts = spline(r, nu)
        return _scalar_or_array(r, parts[..., 0] + 1j * parts[..., 1])

    return PressureSolution(m.n, q, lambda r: q(r, 1), p, m)


# ---------------------------------------------------------------------------
# Curvature per mode
# ---------------------------------------------------------------------------

def curvature_mode_closed(p: RadialProfile, m: FourierMode) -> float:
    """Non-normalized curvature of span(X, Y_n) via the closed Bessel formula.

    The integrand sees every node at once, ascending, so H_n / I1 is carried
    from node to node in one sweep.
    """
    if m.n == 0:
        return 0.0
    n2 = m.n ** 2

    def integrand(r):
        h = _h_ratio(p, m, r)
        return (n2 * np.abs(m.g(r)) ** 2 * p.eta(r) + np.abs(h) ** 2) / r

    return FOUR_PI_SQ * quad_real(integrand, 0.0, 1.0, points=_knots(p, m))


def curvature_mode_oracle(p: RadialProfile, m: FourierMode, grid: int = 4096) -> float:
    """Direct curvature-tensor contraction using the finite-difference pressure.

    Assembles W = R(Y_n, X) X before the outer Leray projection and returns
    Re <<W, conj(Y_n)>>; the omitted gradient part of the projection is
    orthogonal to the divergence-free conj(Y_n), so it integrates to zero.
    """
    if m.n == 0:
        return 0.0
    q = pressure_bvp_solve(p, m, grid)
    n2 = m.n ** 2

    def integrand(r):
        f = m.f(r)
        u = p.u(r)
        # w_theta = (q' + r f u) u / r; the radial part contracts to
        # n^2 |g|^2 eta / r^2, the theta part carries r^2; volume element r dr
        w_theta = (q.q_prime(r) + r * f * u) * u / r
        return (n2 * np.abs(m.g(r)) ** 2 * p.eta(r) / r
                + (np.conj(f) * w_theta).real * r ** 3)

    return FOUR_PI_SQ * quad_real(integrand, 0.0, 1.0, epsabs=1e-11, epsrel=1e-9,
                                  points=_knots(p, m))


def curvature_total(p: RadialProfile, modes) -> float:
    """Sum of per-mode curvatures; modes must carry distinct wavenumbers."""
    ns = [m.n for m in modes]
    if len(set(ns)) != len(ns):
        raise ValidationError(f"duplicate mode numbers in {ns}")
    return sum(curvature_mode_closed(p, m) for m in sorted(modes, key=lambda mm: mm.n))


def _gram_determinant(p: RadialProfile, m: FourierMode) -> float:
    xx = swirl_energy(p)
    yy = mode_energy(m)
    xy = cross_inner_product(p, m)
    denom = xx * yy - xy * xy
    if denom <= 1e-300:
        raise DegenerateSectionError("section degenerate: Gram determinant vanishes")
    return denom


def curvature_normalized(p: RadialProfile, m: FourierMode) -> float:
    """Kbar divided by the Gram determinant of (X, Y_n)."""
    return curvature_mode_closed(p, m) / _gram_determinant(p, m)


@dataclass
class CurvatureResult:
    n: int
    kbar_closed: float
    kbar_oracle: float
    discrepancy: float
    k_normalized: float


def curvature_report(p: RadialProfile, m: FourierMode, grid: int = 4096) -> CurvatureResult:
    kc = curvature_mode_closed(p, m)
    ko = curvature_mode_oracle(p, m, grid)
    try:
        kn = kc / _gram_determinant(p, m)
    except (RegularityError, DegenerateSectionError):
        kn = float("nan")
    return CurvatureResult(
        n=m.n,
        kbar_closed=kc,
        kbar_oracle=ko,
        discrepancy=abs(kc - ko) / (1.0 + abs(kc)),
        k_normalized=kn,
    )


# ---------------------------------------------------------------------------
# Oscillation study (normalized curvature of g = sin(k pi r), f = 0)
# ---------------------------------------------------------------------------

def oscillation_study(p: RadialProfile, n: int = 1, k_values=range(1, 33)):
    """Normalized curvature of g = sin(k pi r) modes for increasing k.

    These test fields carry g'(0) != 0, so the first-principles kinetic
    energy diverges logarithmically at the axis; the denominator here uses
    the energy form without the 1/r weight on |g'|^2 (finite, and the k -> 0
    trend is the same either way).
    """
    if n == 0:
        raise InvalidModeError("oscillation study requires n != 0")
    xx = swirl_energy(p)
    out = []
    for k in k_values:
        w = k * np.pi
        numerator = quad_real(lambda r: n * n * np.sin(w * r) ** 2 * p.eta(r) / r, 0.0, 1.0,
                              points=p.u.knots)
        denominator = quad_real(
            lambda r: n * n * np.sin(w * r) ** 2 / r + (w * np.cos(w * r)) ** 2, 0.0, 1.0)
        out.append((int(k), numerator / (xx * denominator)))
    return out
