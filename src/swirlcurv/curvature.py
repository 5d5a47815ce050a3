"""Sectional curvature of sections containing the swirl field.

Two independent routes compute the non-normalized curvature of the plane
spanned by X = u(r) d/dtheta and a mode Y_n:

* the closed Bessel-form
      Kbar = 4 pi^2 int_0^1 (1/r) [ n^2 |g|^2 eta(r) + |H_n(r)|^2 / I1(|n| r)^2 ] dr
  with H_n(r) = int_0^r s^2 f u xi_n'(s) ds.  The ratio y = H_n / I1(N r),
  N = |n|, solves y' = N r^2 f u - (N I1'(N r) / I1(N r)) y with y(0) = 0;
  it is collocated on the quadrature's own Gauss nodes (Hairer & Wanner,
  *Solving ODEs II*, IV.5), from scaled Bessel ratios only, so large |n|
  never overflows;

* an oracle that solves the pressure Neumann problem by a Galerkin method on
  B-splines (no Bessel functions anywhere) and contracts the curvature
  tensor against the conjugate mode from first principles.

n = 0 modes contribute zero: both covariant-derivative terms in the tensor
are gradients (projected away) and [X, Y_0] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from . import special as sp
from .errors import (DegenerateSectionError, InvalidModeError, RegularityError,
                     ValidationError)
from .linalg import solve_banded
from .modes import FOUR_PI_SQ, FourierMode, cross_inner_product, mode_energy
from .profile import RadialProfile
from .quadrature import _W, _X, NODES, PANELS, gauss_nodes, panel_edges, quad_real
from .radial import bspline_basis

__all__ = [
    "PressureSolution",
    "CurvatureResult",
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

# B-spline degree of the pressure basis, 9: the largest whose mass integrand
# r B_i B_j, of degree 2 DEG + 1, the NODES-point Gauss rule integrates exactly
DEG = NODES - 1
# a wall layer of width 1/|n| thinner than the uniform panels gets panel ends
# x_k / |n| from the wall, e^(-x_k / 10) = 1 - k / WALL for 0 < k < WALL: the
# first panel is 0.51 / |n| wide, and they widen as the layer fades, out to
# x = 10 ln WALL = 30, where it is down to e^-30
WALL = 20


@dataclass
class PressureSolution:
    """The Fourier coefficient q_n of the pressure in the Leray projection."""

    n: int
    q: object            # r (number or array) -> complex values
    q_prime: object      # r (number or array) -> complex values


def _knots(p: RadialProfile, m: FourierMode):
    return np.concatenate([p.u.knots, m.knots])


# S[j, k] = int_{-1}^{t_j} l_k for the quadrature's Gauss nodes t = _X (weights w = _W)
# and the Lagrange basis l_k on t, from l_k = w_k sum_i (i + 1/2) P_i(t_k) P_i
_S = legendre.legvander(_X, NODES) @ legendre.legint(
    (np.arange(NODES) + 0.5)[:, None] * legendre.legvander(_X, NODES - 1).T * _W, lbnd=-1)


def _carry(decay, increment):
    """y_k = decay_k y_{k-1} + increment_k from y = 0 before the first k.

    A Hillis-Steele scan: after the pass with step s, entry k holds the map
    y_{k-2s} -> y_k as the pair (product of its decays, its sum).  Each decay
    lies in [0, 1], so the products can only underflow to 0, which is exact
    for terms that far below the sum.
    """
    a, y = np.array(decay, dtype=float), np.array(increment, dtype=complex)
    step = 1
    while step < y.size:
        y[step:] += a[step:] * y[:-step]
        a[step:] *= a[:-step]
        step *= 2
    return y


def _h_ratio(p: RadialProfile, m: FourierMode, r):
    """H_n(r) / I1(N r) at the nodes r of a ``quad_real`` panel set from 0.

    On each panel y' = q - rate y, q = N r^2 f u, rate = N I1'/I1 > 0, is
    collocated at the Gauss nodes: y' there solves (I + half diag(rate) S) y'
    = q - rate y_start, so each panel's end value is an affine map of its
    start value, with a factor in [0, 1].  The maps are carried from the axis.
    """
    N = abs(m.n)
    x = r.reshape(-1, NODES)
    half = (x[:, -1] - x[:, 0]) / (_X[-1] - _X[0])
    rate = N * sp.i0e(N * x) / sp.i1e(N * x) - 1.0 / x
    q = N * x * x * m.f(x) * p.u(x)
    v = np.linalg.solve(np.eye(NODES) + (half[:, None] * rate)[:, :, None] * _S,
                        np.stack([q.real, q.imag, -rate], axis=-1))
    vq, vp = v[..., 0] + 1j * v[..., 1], v[..., 2]
    decay = 1.0 + half * (vp @ _W)
    decay[0] = 0.0   # nothing is carried into the axis
    start = np.concatenate([[0.0], _carry(decay, half * (vq @ _W))[:-1]])
    return (start[:, None] + half[:, None] * ((vq + start[:, None] * vp) @ _S.T)).ravel()


def pressure_bvp_solve(p: RadialProfile, m: FourierMode) -> PressureSolution:
    """Galerkin solution of the pressure Neumann problem on B-splines.

    q solves (1/r)(r q')' - n^2 q = -(1/r)(r^2 f u)', regular at the axis, with
    q'(1) = -f(1) u(1).  Multiplied by r v and integrated by parts, the Neumann
    value cancels the boundary term:
        int_0^1 (r q' v' + n^2 r q v) dr = -int_0^1 r^2 f u v' dr
    for every basis function v; the r weight carries the axis regularity.
    The basis is the B-splines of degree ``DEG`` on the uniform panels, on the
    ``WALL`` grading of a thin wall layer, and on the spline knots of u and f
    with multiplicity DEG - 3, since q is only C^3 there.  Each panel's
    element matrix goes straight into band storage.  No Bessel functions.
    """
    if m.n == 0:
        raise InvalidModeError("pressure BVP requires n != 0")
    data = np.concatenate([p.u.knots, m.f.knots])
    wall = (1.0 + 10.0 * np.log(1.0 - np.arange(1, WALL) / WALL) / abs(m.n)
            if abs(m.n) > PANELS else [])
    edges = panel_edges(0.0, 1.0, np.concatenate([wall, data]))
    mult = np.where(np.isin(edges, data), DEG - 3, 1)
    mult[[0, -1]] = DEG + 1
    t = np.repeat(edges, mult)
    nb = t.size - DEG - 1

    x, w = gauss_nodes(edges)
    # b, db: (spline, panel, node); a panel lies in one span, so its nodes share first
    (first, b), (_, db) = (bspline_basis(t, DEG, x, nu) for nu in (0, 1))
    wr = w * x
    element = (np.swapaxes(db * wr, 0, 1) @ db.transpose(1, 2, 0)
               + m.n ** 2 * (np.swapaxes(b * wr, 0, 1) @ b.transpose(1, 2, 0)))
    source = -np.sum(wr * x * m.f(x) * p.u(x) * db, axis=-1).T
    # A[i, j] goes to ab[DEG + i - j, j]; neighbouring panels add into shared entries
    i = first[:, :1] + np.arange(DEG + 1)
    flat = (DEG + i[:, :, None] - i[:, None, :]) * nb + i[:, None, :]
    ab = np.bincount(flat.ravel(), element.ravel(), (2 * DEG + 1) * nb).reshape(-1, nb)
    rhs = np.stack([np.bincount(i.ravel(), part.ravel(), nb)
                    for part in (source.real, source.imag)], axis=-1)
    coef = solve_banded((DEG, DEG), ab, rhs)   # the matrix is real: one column per part
    coef = coef[:, 0] + 1j * coef[:, 1]

    def q(r, nu=0):
        start, basis = bspline_basis(t, DEG, r, nu)
        return sum(basis[j] * coef[start + j] for j in range(DEG + 1))

    return PressureSolution(m.n, q, lambda r: q(r, 1))


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


def curvature_mode_oracle(p: RadialProfile, m: FourierMode) -> float:
    """Direct curvature-tensor contraction using the Galerkin pressure.

    Assembles W = R(Y_n, X) X before the outer Leray projection and returns
    Re <<W, conj(Y_n)>>; the omitted gradient part of the projection is
    orthogonal to the divergence-free conj(Y_n), so it integrates to zero.
    """
    if m.n == 0:
        return 0.0
    q = pressure_bvp_solve(p, m)
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
    xx = p.energy
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


def curvature_report(p: RadialProfile, m: FourierMode) -> CurvatureResult:
    kc = curvature_mode_closed(p, m)
    ko = curvature_mode_oracle(p, m)
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

# wavenumbers per pair of quadrature calls: a row that has converged is still
# evaluated on the finer panels its block's largest k needs, so one call over
# every k is slower than one k at a time from k_max ~ 256 on (4.0 s against
# 1.6 s at 1024); a block also bounds the integrand arrays by
# BLOCK * MAX_PANELS * NODES values, whatever k_max is
BLOCK = 16


def oscillation_study(p: RadialProfile, n: int = 1, k_values=range(1, 33)):
    """Normalized curvature of g = sin(k pi r) modes for increasing k.

    These test fields carry g'(0) != 0, so the first-principles kinetic
    energy diverges logarithmically at the axis; the denominator here uses
    the energy form without the 1/r weight on |g'|^2 (finite, and the k -> 0
    trend is the same either way).  Each block of ``BLOCK`` wavenumbers is
    one vector ``quad_real`` call for the numerators and one for the
    denominators.
    """
    if n == 0:
        raise InvalidModeError("oscillation study requires n != 0")
    xx = p.energy
    k_values = list(k_values)
    out = []
    for start in range(0, len(k_values), BLOCK):
        block = k_values[start:start + BLOCK]
        w = np.array(block)[:, None] * np.pi
        numerator = quad_real(lambda r: n * n * np.sin(w * r) ** 2 * p.eta(r) / r, 0.0, 1.0,
                              points=p.u.knots)
        denominator = quad_real(
            lambda r: n * n * np.sin(w * r) ** 2 / r + (w * np.cos(w * r)) ** 2, 0.0, 1.0)
        out.extend(zip(map(int, block), (numerator / (xx * denominator)).tolist()))
    return out
