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
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from .bessel import HomogeneousSolutions
from .errors import (DegenerateSectionError, InvalidModeError, RegularityError,
                     ValidationError)
from .modes import FOUR_PI_SQ, FourierMode, cross_inner_product, mode_energy, swirl_energy
from .profile import RadialProfile
from .quadrature import quad_complex, quad_real

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

@dataclass
class PressureSolution:
    """The Fourier coefficient q_n of the pressure in the Leray projection."""

    n: int
    q: object            # callable r -> complex
    q_prime: object      # callable r -> complex
    source: str          # "closed-form" or "bvp"
    grid: int | None
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
        q = np.array([self.q(x) for x in r])
        qm2 = np.array([self.q(x - 2 * h) for x in r])
        qm1 = np.array([self.q(x - h) for x in r])
        qp1 = np.array([self.q(x + h) for x in r])
        qp2 = np.array([self.q(x + 2 * h) for x in r])
        d1 = (qm2 - 8 * qm1 + 8 * qp1 - qp2) / (12 * h)
        d2 = (-qm2 + 16 * qm1 - 30 * q + 16 * qp1 - qp2) / (12 * h * h)

        p, m = self.profile, self.mode
        u = np.asarray(p.u(r), dtype=float)
        up = np.asarray(p.u.derivative(r), dtype=float)
        f = np.asarray(m.f(r), dtype=complex)
        fp = np.asarray(m.f.derivative(r), dtype=complex)
        # -(1/r) d/dr (r^2 f u) = -(2 f u + r (f' u + f u'))
        rhs = -(2 * f * u + r * (fp * u + f * up))
        resid = d2 + d1 / r - self.n ** 2 * q - rhs
        scale = max(float(np.max(np.abs(rhs))), 1e-300)
        return float(np.max(np.abs(resid)) / scale)


def _fu_scale(p: RadialProfile, m: FourierMode, samples: int = 33) -> float:
    s = np.linspace(0.0, 1.0, samples)
    vals = np.abs(np.array([m.f(x) for x in s]) * np.array([float(p.u(x)) for x in s]))
    return float(max(np.max(vals), 1e-300))


def _h_over_i1(p, m, hs, r, eps_scale):
    """H_n(r) / I1(|n| r), evaluated as a single quadrature in ratio form."""
    if r <= 0.0:
        return 0.0j
    N = hs.N
    i1r = float(sp.i1e(N * r))

    def integrand(s):
        ratio = sp.i1e(N * s) / i1r * np.exp(-N * (r - s))
        return s * s * m.f(s) * float(p.u(s)) * N * ratio

    return quad_complex(integrand, 0.0, r, epsabs=1e-13 * eps_scale, epsrel=1e-10)


def pressure_closed_form(p: RadialProfile, m: FourierMode) -> PressureSolution:
    """q_n = -zeta_n H_n + xi_n J_n, assembled from scaled Bessel products."""
    if m.n == 0:
        raise InvalidModeError("closed-form pressure requires n != 0")
    hs = HomogeneousSolutions(m.n)
    N, c = hs.N, hs.c_scaled
    eps = 1e-13 * max(_fu_scale(p, m), 1.0)

    def fu(s):
        return s * s * m.f(s) * float(p.u(s))

    def q(r):
        r = float(r)
        # zeta(r) * H(r): integrand contains I1(Ns) zeta(r), exponents <= 0
        def zh(s):
            core = (c * sp.i1e(N * s) * sp.i0e(N * r) * np.exp(N * (s + r - 2.0))
                    + sp.i1e(N * s) * sp.k0e(N * r) * np.exp(N * (s - r)))
            return fu(s) * N * core

        # xi(r) * J(r) = -int_r^1 fu(s) zeta'(s) xi(r) ds
        def xj(s):
            core = N * (c * sp.i1e(N * s) * sp.i0e(N * r) * np.exp(N * (s + r - 2.0))
                        - sp.k1e(N * s) * sp.i0e(N * r) * np.exp(N * (r - s)))
            return fu(s) * core

        t1 = quad_complex(zh, 0.0, r, epsabs=eps) if r > 0 else 0.0j
        t2 = -quad_complex(xj, r, 1.0, epsabs=eps) if r < 1 else 0.0j
        return -t1 + t2

    def q_prime(r):
        r = float(r)

        def zph(s):
            core = N * (c * sp.i1e(N * s) * sp.i1e(N * r) * np.exp(N * (s + r - 2.0))
                        - sp.i1e(N * s) * sp.k1e(N * r) * np.exp(N * (s - r)))
            return fu(s) * N * core

        def xpj(s):
            core = N * N * (c * sp.i1e(N * s) * sp.i1e(N * r) * np.exp(N * (s + r - 2.0))
                            - sp.k1e(N * s) * sp.i1e(N * r) * np.exp(N * (r - s)))
            return fu(s) * core

        t1 = quad_complex(zph, 0.0, r, epsabs=eps) if r > 0 else 0.0j
        t2 = -quad_complex(xpj, r, 1.0, epsabs=eps) if r < 1 else 0.0j
        return -t1 + t2 - r * m.f(r) * float(p.u(r))

    return PressureSolution(m.n, q, q_prime, "closed-form", None, p, m)


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

    def solve(N):
        h = 1.0 / N
        r = np.linspace(0.0, 1.0, N + 1)
        u = np.asarray(p.u(r), dtype=float)
        up = np.asarray(p.u.derivative(r), dtype=float)
        f = np.asarray(m.f(r), dtype=complex)
        fp = np.asarray(m.f.derivative(r), dtype=complex)
        rhs = -(2 * f * u + r * (fp * u + f * up))
        n2 = m.n ** 2

        # banded storage: rows (upper, diag, lower)
        upper = np.zeros(N + 1, dtype=complex)
        diag = np.zeros(N + 1, dtype=complex)
        lower = np.zeros(N + 1, dtype=complex)
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
        beta = -m.f(1.0) * float(p.u(1.0))
        lower[N - 1] = 2.0 / h ** 2
        diag[N] = -2.0 / h ** 2 - n2
        b[N] = rhs[N] - beta * (2.0 / h + 1.0)

        ab = np.zeros((3, N + 1), dtype=complex)
        ab[0, 1:] = upper[1:]
        ab[1, :] = diag
        ab[2, :-1] = lower[:-1]
        return r, solve_banded((1, 1), ab, b)

    r1, q1 = solve(grid)
    r2, q2 = solve(2 * grid)
    q_extrap = (4.0 * q2[::2] - q1) / 3.0

    beta = complex(-m.f(1.0) * float(p.u(1.0)))
    spline_re = CubicSpline(r1, q_extrap.real, bc_type=((1, 0.0), (1, beta.real)))
    spline_im = CubicSpline(r1, q_extrap.imag, bc_type=((1, 0.0), (1, beta.imag)))

    def q(r):
        return complex(spline_re(r) + 1j * spline_im(r))

    def q_prime(r):
        return complex(spline_re(r, 1) + 1j * spline_im(r, 1))

    return PressureSolution(m.n, q, q_prime, "bvp", grid, p, m)


# ---------------------------------------------------------------------------
# Curvature per mode
# ---------------------------------------------------------------------------

def curvature_mode_closed(p: RadialProfile, m: FourierMode) -> float:
    """Non-normalized curvature of span(X, Y_n) via the closed Bessel formula."""
    if m.n == 0:
        return 0.0
    hs = HomogeneousSolutions(m.n)
    n2 = m.n ** 2
    eps_scale = max(_fu_scale(p, m), 1.0)

    def first(r):
        if r == 0.0:
            return 0.0
        g = m.g(r)
        return n2 * abs(g) ** 2 * float(p.eta(r)) / r

    term1 = quad_real(first, 0.0, 1.0)

    def second(r):
        if r == 0.0:
            return 0.0
        hs_val = _h_over_i1(p, m, hs, r, eps_scale)
        return abs(hs_val) ** 2 / r

    term2 = quad_real(second, 0.0, 1.0, epsabs=1e-12 * eps_scale ** 2, epsrel=1e-9,
                      limit=300)
    return FOUR_PI_SQ * (term1 + term2)


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
        if r == 0.0:
            return 0.0
        g = m.g(r)
        f = m.f(r)
        u = float(p.u(r))
        w_theta = (q.q_prime(r) + r * f * u) * u / r
        # radial part contracts to n^2 |g|^2 eta / r^2; theta parts carry r^2
        val = n2 * abs(g) ** 2 * float(p.eta(r)) / r ** 2 + (np.conj(f) * w_theta).real * r ** 2
        return val * r  # volume element r dr

    return FOUR_PI_SQ * quad_real(integrand, 0.0, 1.0, epsabs=1e-11, epsrel=1e-9, limit=300)


def curvature_total(p: RadialProfile, modes, *, count_conjugate_pairs: bool = False) -> float:
    """Sum of per-mode curvatures; modes must carry distinct wavenumbers.

    With ``count_conjugate_pairs`` each n > 0 entry is doubled to account for
    the implicit conjugate partner at -n of a real field.
    """
    ns = [m.n for m in modes]
    if len(set(ns)) != len(ns):
        raise ValidationError(f"duplicate mode numbers in {ns}")
    total = 0.0
    for m in sorted(modes, key=lambda mm: mm.n):
        k = curvature_mode_closed(p, m)
        if count_conjugate_pairs and m.n > 0:
            k *= 2.0
        total += k
    return total


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
    oracle_grid: int


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
        oracle_grid=grid,
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

        def num(r):
            if r == 0.0:
                return 0.0
            return n * n * np.sin(w * r) ** 2 * float(p.eta(r)) / r

        def den(r):
            s = np.sin(w * r)
            c = np.cos(w * r)
            first = 0.0 if r == 0.0 else n * n * s * s / r
            return first + (w * c) ** 2

        numerator = quad_real(num, 0.0, 1.0, limit=400)
        denominator = quad_real(den, 0.0, 1.0, limit=400)
        out.append((int(k), numerator / (xx * denominator)))
    return out
