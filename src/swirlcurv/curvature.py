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
  tensor against the conjugate mode from first principles, the pressure term
  read off the solve's own linear system.

n = 0 modes contribute zero: both covariant-derivative terms in the tensor
are gradients (projected away) and [X, Y_0] = 0.

``curvature_table``, behind the ``curvature`` command, computes both routes and
the normalized curvature of a list of modes in one pass: one ``quad_real`` call
per panel set and one stacked ``solve_banded`` call per pressure knot vector
per ``BLOCK`` modes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from . import special as sp
from .errors import (AccuracyError, DegenerateSectionError, InvalidModeError,
                     ValidationError)
from .linalg import solve_banded
from .modes import FOUR_PI_SQ, FourierMode, cross_inner_product, mode_energy, swirl_energy
from .profile import RadialProfile
from .quadrature import _W, _X, NODES, PANELS, gauss_nodes, panel_edges, quad_real
from .radial import bspline_basis

__all__ = [
    "PressureSolution",
    "CurvatureResult",
    "pressure_bvp_solve",
    "curvature_mode_closed",
    "curvature_mode_oracle",
    "curvature_normalized",
    "curvature_table",
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
# band rows of one stacked pressure solve: a stack's band storage, element matrices,
# loads and elimination blocks grow with its rows, so it is kept within the rows of
# one mode on a 10 001-knot spline table (60 020), whose solve alone peaks near
# 110 MB traced; polynomial data (41 or 60 rows a mode) stacks a whole block
STACK_ROWS = 1 << 16


@dataclass
class PressureSolution:
    """The Fourier coefficient q_n = sum_j coef_j B_j of the pressure in the Leray
    projection, on the B-splines B_j of degree ``DEG`` on the knots ``t``."""

    n: int
    t: np.ndarray
    coef: np.ndarray     # complex
    energy: float        # int_0^1 r (|q'|^2 + n^2 |q|^2) dr = c^H A c >= 0

    def q(self, r, nu=0):
        """q_n, or its ``nu``-th derivative, at r (number or array)."""
        start, basis = bspline_basis(self.t, DEG, r, nu)
        return sum(basis[nu, j] * self.coef[start + j] for j in range(DEG + 1))


# S[j, k] = int_{-1}^{t_j} l_k for the quadrature's Gauss nodes t = _X (weights w = _W)
# and the Lagrange basis l_k on t, from l_k = w_k sum_i (i + 1/2) P_i(t_k) P_i
_S = legendre.legvander(_X, NODES) @ legendre.legint(
    (np.arange(NODES) + 0.5)[:, None] * legendre.legvander(_X, NODES - 1).T * _W, lbnd=-1)


def _carry(decay, increment):
    """y_k = decay_k y_{k-1} + increment_k along the last axis, from y = 0 before
    the first k.

    A Hillis-Steele scan: after the pass with step s, entry k holds the map
    y_{k-2s} -> y_k as the pair (product of its decays, its sum).  Each decay
    lies in [0, 1], so the products can only underflow to 0, which is exact
    for terms that far below the sum.
    """
    a, y = np.array(decay, dtype=float), np.array(increment, dtype=complex)
    step = 1
    while step < y.shape[-1]:
        y[..., step:] += a[..., step:] * y[..., :-step]
        a[..., step:] *= a[..., :-step]
        step *= 2
    return y


def _h_ratio(modes, r, f, u):
    """H_n(r) / I1(N r), one row per mode, at the nodes r of one or more
    ``quad_real`` panel sets from 0, from the values of u and of each mode's f there.

    On each panel y' = q - rate y, q = N r^2 f u, rate = N I1'/I1 > 0, is
    collocated at the Gauss nodes: y' there solves (I + half diag(rate) S) y'
    = q - rate y_start, so each panel's end value is an affine map of its
    start value, with a factor in [0, 1].  The maps are carried from the axis,
    in (modes, panels, nodes) arrays: each step is one numpy call for all modes.
    The carry restarts from 0 at each set's first panel, which lies below the one before.
    """
    N = np.array([abs(m.n) for m in modes], dtype=float)[:, None, None]
    x = r.reshape(-1, NODES)
    half = (x[:, -1] - x[:, 0]) / (_X[-1] - _X[0])
    Nx = N * x
    rate = N * sp.i0e(Nx) / sp.i1e(Nx) - 1.0 / x
    q = N * x * x * f.reshape(N.size, -1, NODES) * u.reshape(x.shape)
    v = np.linalg.solve(np.eye(NODES) + (half[:, None] * rate)[..., None] * _S,
                        np.stack([q.real, q.imag, -rate], axis=-1))
    vq, vp = v[..., 0] + 1j * v[..., 1], v[..., 2]
    first = np.diff(x[:, 0], prepend=np.inf) < 0.0   # the first panel of each set
    decay = 1.0 + half * (vp @ _W)
    decay[:, first] = 0.0   # nothing is carried into the axis
    start = np.pad(_carry(decay, half * (vq @ _W))[:, :-1], ((0, 0), (1, 0)))[..., None]
    start[:, first] = 0.0
    return (start + half[:, None] * ((vq + start * vp) @ _S.T)).reshape(N.size, -1)


def _pressure_solutions(p: RadialProfile, modes) -> list:
    """``pressure_bvp_solve`` of each of ``modes`` (n != 0): the knot vector of each
    distinct pair of data knots and wall grading is built once, the modes that share
    a knot vector share its nodes, u, B-splines, band positions, stiffness and mass,
    and their systems are stacked ``solve_banded`` calls of up to ``STACK_ROWS``
    band rows (at least one system)."""
    groups, vectors = {}, {}
    for m in modes:
        data = np.concatenate([p.u.knots, m.f.knots])
        graded = abs(m.n) > PANELS   # a wall layer thinner than the uniform panels
        key = data.tobytes(), abs(m.n) if graded else 0
        if key not in vectors:
            wall = (1.0 + 10.0 * np.log(1.0 - np.arange(1, WALL) / WALL) / abs(m.n)
                    if graded else [])
            edges = panel_edges(0.0, 1.0, np.concatenate([wall, data]))
            mult = np.where(np.isin(edges, data), DEG - 3, 1)
            mult[[0, -1]] = DEG + 1
            t = np.repeat(edges, mult)
            vectors[key] = groups.setdefault(t.tobytes(), (edges, t, []))
        vectors[key][2].append(m)
    out = {}
    for edges, t, group in groups.values():
        nb = t.size - DEG - 1
        x, w = gauss_nodes(edges)
        # b, db: (spline, panel, node); a panel lies in one span, so its nodes share first
        first, (b, db) = bspline_basis(t, DEG, x, 1)
        wr, u = w * x, p.u(x)
        stiffness = np.swapaxes(db * wr, 0, 1) @ db.transpose(1, 2, 0)
        mass = np.swapaxes(b * wr, 0, 1) @ b.transpose(1, 2, 0)
        # A[i, j] of the k-th mode of a stack goes to ab[k, DEG + i - j, j]; neighbouring
        # panels add into shared entries
        i = first[:, :1] + np.arange(DEG + 1)
        band = (DEG + i[:, :, None] - i[:, None, :]) * nb + i[:, None, :]
        size = max(1, STACK_ROWS // nb)
        for stack in (group[start:start + size] for start in range(0, len(group), size)):
            k = np.arange(len(stack))[:, None, None]
            n2 = np.array([m.n ** 2 for m in stack], dtype=float)[:, None, None, None]
            f = np.array([m.f(x) for m in stack])
            source = -np.sum((wr * x * f * u)[:, None] * db, axis=-1)   # (mode, spline, panel)
            ab = np.bincount((k[..., None] * (2 * DEG + 1) * nb + band).ravel(),
                             (stiffness + n2 * mass).ravel(),
                             len(stack) * (2 * DEG + 1) * nb).reshape(len(stack), -1, nb)
            rhs = np.stack([np.bincount((k * nb + i).ravel(), np.swapaxes(part, 1, 2).ravel(),
                                        len(stack) * nb) for part in (source.real, source.imag)],
                           axis=-1).reshape(len(stack), nb, 2)
            coef = solve_banded((DEG, DEG), ab, rhs)   # the matrices are real: a column per part
            loads, coef = (v[..., 0] + 1j * v[..., 1] for v in (rhs, coef))
            for m, s, c in zip(stack, loads, coef):   # Re(s^H c) = c^H A c: s = A c
                out[m.n] = PressureSolution(m.n, t, c, float(np.vdot(s, c).real))
    return [out[m.n] for m in modes]


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
    element matrix goes straight into band storage, and the system is a stack
    of one for ``solve_banded``, the path of a curvature table's modes.  No
    Bessel functions.
    """
    if m.n == 0:
        raise InvalidModeError("pressure BVP requires n != 0")
    return _pressure_solutions(p, [m])[0]


# ---------------------------------------------------------------------------
# Curvature per mode, and of a table of modes
# ---------------------------------------------------------------------------

# modes of a curvature table, or wavenumbers of the oscillation study, per vector
# quadrature call: a row that has converged is still evaluated on the finer
# panels its block's slowest row needs, so one call over every k is slower than
# one k at a time from k_max ~ 256 on (4.0 s against 1.6 s at 1024); a block bounds
# the arrays by BLOCK * MAX_PANELS * NODES values per integral (the oscillation study
# has two, and its complex harmonics take as much again; times NODES for the collocation)
BLOCK = 16
KINDS = ("closed", "oracle", "energy")   # the integrals of a mode, rows in this order


def _integrand(p: RadialProfile, rows):
    """The integrand of ``rows``, (kind, mode) pairs on one panel set in the order
    "closed" (n^2 |g|^2 eta + |H_n / I1|^2) / r, "oracle" n^2 |g|^2 eta / r + r^3 |f u|^2
    (less its pressure term), "energy" (n^2 |g|^2 + |g'|^2) / r + r^3 |f|^2.  u, eta and
    each mode's g and f are evaluated once per call, each row in its one-mode order."""
    modes = list({m.n: m for _, m in rows}.values())
    slot = {m.n: k for k, m in enumerate(modes)}
    c, o, e = ([slot[m.n] for kk, m in rows if kk == kind] for kind in KINDS)
    n2 = np.array([m.n ** 2 for m in modes], dtype=float)[:, None]

    def fn(r):
        g = np.array([m.g(r) for m in modes])
        f = np.array([m.f(r) for m in modes])
        r3, s, parts = r ** 3, n2 * np.abs(g) ** 2, []
        if c or o:
            u, s_eta = p.u(r), s * p.eta(r)
        if c:
            h = _h_ratio([modes[k] for k in c], r, f[c], u)
            parts.append((s_eta[c] + np.abs(h) ** 2) / r)
        if o:
            parts.append(s_eta[o] / r + r3 * np.abs(f[o] * u) ** 2)
        if e:
            dg = np.array([modes[k].g.derivative(r) for k in e])
            parts.append((s[e] + np.abs(dg) ** 2) / r + r3 * np.abs(f[e]) ** 2)
        return np.concatenate(parts)

    return fn


def _radial_integrals(p: RadialProfile, rows) -> dict:
    """{(kind, n): integral over [0, 1], without 4 pi^2} of ``_integrand``'s ``rows``:
    one vector ``quad_real`` call per panel set, split at the knots of the mode
    (and of u, but for an energy), each distinct knot set's panels found once.
    An ``AccuracyError`` names mode and integral."""
    groups, panels = {}, {}
    for kind, m in sorted(rows, key=lambda row: KINDS.index(row[0])):   # _integrand's order
        points = m.knots if kind == "energy" else np.concatenate([p.u.knots, m.knots])
        key = points.tobytes()
        if key not in panels:
            panels[key] = groups.setdefault(panel_edges(0.0, 1.0, points).tobytes(), (points, []))
        panels[key][1].append((kind, m))
    out = {}
    for points, part in groups.values():
        fn = _integrand(p, part)
        try:
            values = quad_real(fn, 0.0, 1.0, points=points).tolist()
        except AccuracyError as exc:
            kind, m = part[exc.row]
            raise AccuracyError(f"n = {m.n}, {kind} integral: {exc}",
                                exc.value, exc.error_estimate) from exc
        out.update(zip([(kind, m.n) for kind, m in part], values))
    return out


def curvature_mode_closed(p: RadialProfile, m: FourierMode) -> float:
    """Non-normalized curvature of span(X, Y_n) via the closed Bessel formula.

    The integrand sees every node of a panel set at once, ascending, so H_n / I1
    is carried from node to node in one sweep; the first check's call holds two
    panel sets, and the sweep restarts from 0 at the axis of each.
    """
    if m.n == 0:
        return 0.0
    return FOUR_PI_SQ * _radial_integrals(p, [("closed", m)])["closed", m.n]


def curvature_mode_oracle(p: RadialProfile, m: FourierMode) -> float:
    """Direct curvature-tensor contraction using the Galerkin pressure.

    Re <<W, conj(Y_n)>> for W = R(Y_n, X) X before the outer Leray projection,
    whose gradient part is orthogonal to the divergence-free conj(Y_n).  Over
    r dr, W contracts to n^2 |g|^2 eta / r^2 + r^2 Re(conj(f) (q' + r f u)) u / r.
    As q = sum_j c_j B_j solves A c = s, s_j = -int r^2 f u B_j' dr, on the same
    panels Re int r^2 u conj(f) q' dr = -sum_j c_j conj(s_j) = -c^H A c.
    """
    if m.n == 0:
        return 0.0
    return FOUR_PI_SQ * (_radial_integrals(p, [("oracle", m)])["oracle", m.n]
                         - pressure_bvp_solve(p, m).energy)


def _gram_determinant(p: RadialProfile, m: FourierMode, xx: float, yy: float) -> float:
    """<<X, X>> <<Y, Y>> - <<X, Y>>^2 for the energies xx = <<X, X>> and yy = <<Y, Y>>."""
    xy = cross_inner_product(p, m)
    denom = xx * yy - xy * xy
    if denom <= 1e-300:
        raise DegenerateSectionError("section degenerate: Gram determinant vanishes")
    return denom


def curvature_normalized(p: RadialProfile, m: FourierMode) -> float:
    """Kbar divided by the Gram determinant of (X, Y_n)."""
    return curvature_mode_closed(p, m) / _gram_determinant(p, m, swirl_energy(p),
                                                           mode_energy(m))


@dataclass
class CurvatureResult:
    n: int
    kbar_closed: float
    kbar_oracle: float
    discrepancy: float
    k_normalized: float


def curvature_table(p: RadialProfile, modes) -> list:
    """The ``CurvatureResult`` of every mode (distinct n), ascending in n, each
    value bit for bit as by ``curvature_mode_closed``, ``curvature_mode_oracle``
    and ``mode_energy``, ``BLOCK`` modes at a time.  k_normalized is nan for a
    mode with g'(0) != 0 or a degenerate section; n = 0 has Kbar = 0."""
    modes = sorted(modes, key=lambda m: m.n)
    ns = [m.n for m in modes]
    if len(set(ns)) != len(ns):
        raise ValidationError(f"duplicate mode numbers in {ns}")
    finite = {m.n for m in modes if m.finite_energy}   # the modes with an energy row
    xx = swirl_energy(p) if finite else None
    out = []
    for start in range(0, len(modes), BLOCK):
        block = modes[start:start + BLOCK]
        route = [m for m in block if m.n != 0]
        rows = ([(kind, m) for kind in KINDS[:2] for m in route]
                + [("energy", m) for m in block if m.n in finite])
        value = _radial_integrals(p, rows)
        pressure = {m.n: q.energy for m, q in zip(route, _pressure_solutions(p, route))}
        for m in block:   # n = 0 has no closed, oracle or pressure value: Kbar = 0
            kc = FOUR_PI_SQ * value.get(("closed", m.n), 0.0)
            ko = FOUR_PI_SQ * (value.get(("oracle", m.n), 0.0) - pressure.get(m.n, 0.0))
            kn = float("nan")   # without an energy row (g'(0) != 0) or a section
            with contextlib.suppress(DegenerateSectionError):
                if ("energy", m.n) in value:
                    kn = kc / _gram_determinant(p, m, xx, FOUR_PI_SQ * value["energy", m.n])
            out.append(CurvatureResult(m.n, kc, ko, abs(kc - ko) / (1.0 + abs(kc)), kn))
    return out


# ---------------------------------------------------------------------------
# Oscillation study (normalized curvature of g = sin(k pi r), f = 0)
# ---------------------------------------------------------------------------

def oscillation_study(p: RadialProfile, n: int, k_max: int):
    """Normalized curvature of g = sin(k pi r) modes for k = 1 ... ``k_max``.

    These test fields carry g'(0) != 0, so the first-principles kinetic
    energy diverges logarithmically at the axis; the denominator here uses
    the energy form without the 1/r weight on |g'|^2 (finite, and the k -> 0
    trend is the same either way).  Each block of ``BLOCK`` wavenumbers is
    one vector ``quad_real`` call on panels split at u's knots: its rows are
    the numerators, then the denominators, which share sin(k pi r), and an
    ``AccuracyError`` names its k.  The last block runs first (the largest k),
    with the swirl energy <<X, X>> as one more row, bit for bit
    ``swirl_energy``'s; rows are ascending in k.

    A block's harmonics z_j = e^(i k_j pi r) come by rotation: z_0 = e^(i k_0 pi r),
    each later one as z_(j-1) e^(i pi r).  So a node costs two complex
    exponentials, a cos and a sin each, not 2 ``BLOCK`` calls.  A harmonic lies
    at most ``BLOCK`` - 1 unit-modulus products from an exact one, and the error
    of such products grows at most linearly in their number: against np.sin and
    np.cos of k pi r the values move by at most 1.3e-15 relative at k <= 64,
    5e-15 at 256 and 1.8e-14 at 1024 (u = 1 and 1 + r^2, n = 1 and 3).
    """
    if n == 0:
        raise InvalidModeError("oscillation study requires n != 0")
    out, xx = [], None
    for start in reversed(range(1, k_max + 1, BLOCK)):
        block = range(start, min(start + BLOCK, k_max + 1))
        w = np.array(block)[:, None] * np.pi
        angles = np.pi * np.array([start, 1])
        turns = [0] + [1] * (len(block) - 1)
        energy = xx is None

        def fn(r):
            # numerators n^2 (Im z)^2 eta / r, then denominators n^2 (Im z)^2 / r
            # + (w Re z)^2, written in place, then r^3 u^2 in the first call, in
            # swirl_energy's operation order
            z = np.exp(1j * np.multiply.outer(angles, r))[turns]
            for j in range(1, len(block)):
                z[j] *= z[j - 1]
            values = np.empty((2 * len(block) + energy, r.size))
            numerator, denominator = values[:len(block)], values[len(block):2 * len(block)]
            np.square(z.imag, out=numerator)
            np.multiply(w, z.real, out=denominator)
            del z   # before the temporaries below: 3.9 MB traced at k <= 256, not 4.6
            np.square(denominator, out=denominator)
            np.multiply(n * n, numerator, out=numerator)
            denominator += numerator / r
            numerator *= p.eta(r)
            numerator /= r
            if energy:
                values[-1] = r ** 3 * p.u(r) ** 2
            return values

        try:
            value = quad_real(fn, 0.0, 1.0, points=p.u.knots)
        except AccuracyError as exc:
            what = (f"k = {block[exc.row % len(block)]}" if exc.row < 2 * len(block)
                    else "swirl energy")
            raise AccuracyError(f"{what}: {exc}", exc.value, exc.error_estimate) from exc
        if energy:
            xx = FOUR_PI_SQ * value[-1]
        numerator, denominator = value[:len(block)], value[len(block):2 * len(block)]
        out[:0] = zip(block, (numerator / (xx * denominator)).tolist())
    return out
