import json
import math
import struct
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy import special as sp
from scipy.integrate import simpson

import swirlcurv.curvature as curvature
import swirlcurv.modes as modes
from swirlcurv import (AccuracyError, DegenerateSectionError, ExpressionFunction, FourierMode,
                       InvalidModeError, PolynomialFunction, RadialProfile,
                       RegularityError, TableFunction, ValidationError, curvature_mode_closed,
                       curvature_mode_oracle, curvature_normalized, curvature_table,
                       mode_energy, oscillation_study, pressure_bvp_solve, swirl_energy)
from swirlcurv import special
from swirlcurv.cli import main
from swirlcurv.config import parse_config
from swirlcurv.quadrature import NODES, gauss_nodes, panel_edges, quad_real
from swirlcurv.radial import ComplexRadialFunction

from _helpers import (G_BASE, counting, mode_poly, profile_poly, random_mode, scaled_mode,
                      standard_mode, u_const, u_decreasing, u_quadratic, workload_config)
from _oracles import (H_RATIO_F, H_RATIO_PANELS, H_RATIO_PROFILE, H_RATIO_REFERENCES,
                      KBAR_REFERENCES, OSCILLATION_REFERENCES, PRESSURE_F, PRESSURE_PROFILE,
                      PRESSURE_REFERENCES, PRESSURE_TERM_REFERENCES, carry_recurrence,
                      h_ratio_gaps, int_r3_i1)

PI2 = math.pi ** 2


# ---------------------------------------------------------------------------
# H_n / J_n
# ---------------------------------------------------------------------------

def _nodes(panels, b=1.0):
    """The Gauss nodes of ``panels`` uniform panels on [0, b], panel-major."""
    return gauss_nodes(np.linspace(0.0, b, panels + 1))[0].ravel()


def _h_ratio(p, m, r):
    """H_n / I1 of one mode at the nodes r, by the closed route's call on a list of modes."""
    return curvature._h_ratio([m], r, m.f(r)[None], p.u(r))[0]


def test_hj_vanish_for_zero_f():
    m = mode_poly(1, [0, 0, 1, -1])
    assert not np.any(_h_ratio(u_const(), m, _nodes(256)))


def test_h_at_one_matches_series_oracle():
    # u = 1, f = r, n = 1: H_1(1) = int_0^1 s^3 I1(s) ds; the panels end just
    # past 1 so that their last node lies on it
    t = np.polynomial.legendre.leggauss(NODES)[0][-1]
    r = _nodes(256, 1.0 / (1.0 - (1.0 - t) / 512))
    assert r[-1] == pytest.approx(1.0, abs=2e-16)
    m = mode_poly(1, [0.0], f_re=[0.0, 1.0])
    H = _h_ratio(u_const(), m, r)[-1] * sp.i1(r[-1])
    assert H.real == pytest.approx(int_r3_i1(), rel=1e-11)
    assert abs(H.imag) < 1e-14


@pytest.mark.parametrize("panels", [256, 512])
@pytest.mark.parametrize("n", [1, 3, 200, 10_000])
def test_h_ratio_matches_the_gap_rule(panels, n):
    """Not run on 32 or 64 panels: there the gap rule's one Gauss panel per gap
    under-resolves the Bessel ratio's 1/N peak (off by 5e-11 and 1.2e-3 of
    max |y| at n = 200 and 10^4 on 32 panels), while the collocation still
    matches mpmath to 5e-16 on those nodes (``H_RATIO_REFERENCES``)."""
    p, m = u_quadratic(), standard_mode(n)
    r = _nodes(panels)
    got = _h_ratio(p, m, r)
    ref = h_ratio_gaps(m.f, p.u, n, r)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, r, value", H_RATIO_REFERENCES)
def test_h_ratio_matches_mpmath_at_large_n(n, r, value):
    # r is the node nearest 0.587 of one panel set; on 32 and 64 panels the
    # closed route makes its first check
    nodes = next(x for x in map(_nodes, H_RATIO_PANELS) if float(r) in x)
    i = int(np.argmin(np.abs(nodes - 0.587)))
    assert nodes[i] == float(r)
    m = mode_poly(n, G_BASE, f_re=H_RATIO_F)
    got = _h_ratio(profile_poly(H_RATIO_PROFILE), m, nodes)[i]
    assert got.real == pytest.approx(float(value), rel=1e-14)
    assert got.imag == 0.0


def test_h_ratio_restarts_the_carry_at_each_panel_set():
    # the first check's 32- and 64-panel sets in one call give each set's values
    # alone, bit for bit, for the benchmark table's 8 modes (n = 1 ... 10^4, a
    # spline-table f among them): the carry starts from 0 where the second set
    # starts, not from the first set's end value
    cfg = parse_config(workload_config("curvature_table", "quad", "curvature"))
    p, ms = cfg.profile, cfg.modes
    assert len(ms) == 8 and 10_000 in [m.n for m in ms]
    assert any(np.size(m.f.knots) for m in ms)
    edges = panel_edges(0.0, 1.0, np.concatenate([p.u.knots] + [m.knots for m in ms]))
    finer = np.insert(edges, np.arange(1, edges.size), 0.5 * (edges[:-1] + edges[1:]))
    sets = [gauss_nodes(e)[0].ravel() for e in (edges, finer)]

    def h(r):
        return curvature._h_ratio(ms, r, np.array([m.f(r) for m in ms]), p.u(r))

    assert np.array_equal(h(np.concatenate(sets)), np.concatenate([h(r) for r in sets], axis=1))


@pytest.mark.parametrize("panels", [256, 8192])
@pytest.mark.parametrize("n", [1, 10, 100, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7])
def test_carry_factors_lie_in_the_unit_interval(monkeypatch, panels, n):
    carry, decays = curvature._carry, []
    monkeypatch.setattr(curvature, "_carry",
                        lambda decay, increment: decays.append(decay) or carry(decay, increment))
    _h_ratio(u_quadratic(), standard_mode(n), _nodes(panels))
    (decay,) = decays
    assert decay.shape == (1, panels) and decay[0, 0] == 0.0   # nothing is carried into the axis
    assert np.all((decay >= 0.0) & (decay <= 1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 200, 10_000, 1_000_000])
def test_carry_scan_matches_the_recurrence(n):
    rng = np.random.default_rng(n)
    # decays as the closed route forms them, exp(-N * gap) times an I1 ratio;
    # long products of them underflow to 0
    decay = np.exp(-rng.uniform(0.0, 40.0, n)) * rng.uniform(0.0, 1.0, n)
    decay[::7] = 1.0
    increment = rng.uniform(0.0, 1.0, n) + 1j * rng.uniform(0.0, 1.0, n)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = curvature._carry(decay, increment)
    ref = np.array(carry_recurrence(decay.tolist(), increment.tolist()))
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14


# ---------------------------------------------------------------------------
# Pressure: Galerkin oracle vs mpmath
# ---------------------------------------------------------------------------

def test_pressure_zero_for_zero_f():
    m = mode_poly(2, [0, 0, 1, -1])
    qb = pressure_bvp_solve(u_const(), m)
    for r in (0.0, 0.3, 0.8, 1.0):
        assert abs(qb.q(r)) < 1e-10


@pytest.mark.parametrize("n", [1, 4])
def test_pressure_boundary_condition(n):
    p = u_quadratic()
    m = standard_mode(n)
    f1u1 = complex(m.f(1.0)) * float(p.u(1.0))
    sol = pressure_bvp_solve(p, m)
    assert sol.q(1.0, 1) == pytest.approx(-f1u1, abs=1e-9)


@pytest.mark.parametrize("n", [200, 10 ** 4, 10 ** 6])
def test_pressure_resolves_the_wall_layer(n):
    # f(1) != 0: q' falls from -f(1) u(1) in a wall layer of width 1/n, which the
    # Galerkin weak form meets only as well as its basis resolves the layer
    # (2.6e-10 worst; a geometric grading of widths 0.3^k / 32 left 3e-2)
    f = [complex(c) for c in PRESSURE_F]
    p = profile_poly(PRESSURE_PROFILE)
    m = mode_poly(n, G_BASE, f_re=[c.real for c in f], f_im=[c.imag for c in f])
    beta = -complex(m.f(1.0)) * float(p.u(1.0))
    assert abs(pressure_bvp_solve(p, m).q(1.0, 1) - beta) <= 1e-9 * abs(beta)


def ode_residual(sol, p, m, grid=128):
    """Max residual of (1/r)(r q')' - n^2 q = -(1/r) d/dr(r^2 f u) over the
    source scale, q' and q'' by 4th-order central differences of q."""
    h = 1e-3
    r = np.linspace(2 * h + 1e-3, 1.0 - 2 * h - 1e-3, grid)
    qm2, qm1, q, qp1, qp2 = sol.q(r + h * np.arange(-2, 3)[:, None])
    d1 = (qm2 - 8 * qm1 + 8 * qp1 - qp2) / (12 * h)
    d2 = (-qm2 + 16 * qm1 - 30 * q + 16 * qp1 - qp2) / (12 * h * h)
    u, f = p.u(r), m.f(r)
    rhs = -(2 * f * u + r * (m.f.derivative(r) * u + f * p.u.derivative(r)))
    return float(np.max(np.abs(d2 + d1 / r - sol.n ** 2 * q - rhs)) / np.max(np.abs(rhs)))


def test_pressure_bvp_satisfies_ode():
    p = u_quadratic()
    m = standard_mode(3)
    assert ode_residual(pressure_bvp_solve(p, m), p, m) < 1e-6


@pytest.mark.parametrize("n", [1, 10])
def test_pressure_routes_agree(n):
    # the Galerkin q reaches 8e-15 and q' 4.1e-13 of the mpmath values here
    p = profile_poly(PRESSURE_PROFILE)
    f = [complex(c) for c in PRESSURE_F]
    m = mode_poly(n, [0, 0, 1, -1], g_im=[0, 0, 0, 0.5], f_re=[c.real for c in f],
                  f_im=[c.imag for c in f])
    qb = pressure_bvp_solve(p, m)
    for r, q, q_prime in PRESSURE_REFERENCES[n]:
        assert qb.q(float(r)) == pytest.approx(complex(q), abs=1e-13)
        assert qb.q(float(r), 1) == pytest.approx(complex(q_prime), abs=2e-12)


@pytest.mark.parametrize("u", [[1.0, 0.0, 1.0], [2.0, 0.0, -1.0], [1.0]])
def test_oracle_matches_closed_route_to_2e11(u):
    # the benchmark gates the two routes only at 1e-6; this pins the oracle's
    # Galerkin solve near what it reaches (6e-15 worst, u = 2 - r^2)
    p = profile_poly(u)
    knots = np.linspace(0.0, 1.0, 33)
    f_table = ComplexRadialFunction(TableFunction(knots, knots * (1.0 - knots)))
    for n in (1, 2, 3, 10, 200):
        m = FourierMode(3, standard_mode(3).g, f_table) if n == 3 else standard_mode(n)
        closed = curvature_mode_closed(p, m)
        assert abs(curvature_mode_oracle(p, m) - closed) <= 2e-12 * abs(closed)


def _pressure_terms(p, n, f_re, f_im=None):
    """The one term the two routes do not share, as each route computes it: with
    g = 0, Kbar is 4 pi^2 (int r^3 |f u|^2 dr - c^H A c) from the Galerkin solve
    and 4 pi^2 int |H / I1|^2 / r dr from the closed route's collocation."""
    m = mode_poly(n, [0.0], f_re=f_re, f_im=f_im)
    return curvature_mode_oracle(p, m), curvature_mode_closed(p, m)


@pytest.mark.parametrize("u", [[1.0], [1.0, 0.0, 1.0], [2.0, 0.0, -1.0]])
def test_pressure_terms_of_the_two_routes_agree(u):
    # worst 2.1e-13 (n = 1).  f(1) != 0 at n = 10^6 puts a 1e-6 wall layer in q',
    # which the solve's panels resolve and the quadrature's miss (6e-6 off there)
    p = profile_poly(u)
    f = [complex(c) for c in PRESSURE_F]
    for n in (1, 3, 10, 200, 10 ** 4, 10 ** 6):
        for f_re, f_im in (([0, 1, -1], None), ([c.real for c in f], [c.imag for c in f])):
            oracle, closed = _pressure_terms(p, n, f_re, f_im)
            assert abs(oracle - closed) <= 1e-12 * abs(closed)


@pytest.mark.parametrize("f, n, value", PRESSURE_TERM_REFERENCES)
def test_pressure_terms_match_mpmath(f, n, value):
    terms = _pressure_terms(profile_poly(PRESSURE_PROFILE), n, [complex(c).real for c in f],
                            [complex(c).imag for c in f])
    for route in terms:
        assert route == pytest.approx(float(value), rel=1e-12)


def test_closed_pressure_term_nears_its_large_n_limit():
    # 4 pi^2 int r^3 |f|^2 u^2 dr = 4 pi^2 361/27720 for u = 1 + r^2, f = r(1 - r),
    # which the closed route reaches as O(n^-2): 1.25e-11 below it at n = 10^6
    _, closed = _pressure_terms(u_quadratic(), 10 ** 6, [0, 1, -1])
    assert abs(closed - modes.FOUR_PI_SQ * 361 / 27720) <= 2e-11


def _exact_integral(*terms) -> Fraction:
    """int_0^1 of a sum of products of integer polynomials (ascending coefficients)."""
    total = Fraction(0)
    for factors in terms:
        prod = [1]
        for f in factors:
            prod = [sum(prod[i] * f[k - i] for i in range(len(prod)) if 0 <= k - i < len(f))
                    for k in range(len(prod) + len(f) - 1)]
        total += sum(Fraction(c, k + 1) for k, c in enumerate(prod))
    return total


def test_oracle_and_energy_rows_are_exact_for_polynomial_data():
    # u = 1 + r^2, g = r^2 (1 - r) = r f, f = r (1 - r): the oracle row
    # n^2 |g|^2 eta / r + r^3 |f u|^2 (eta = u^2 + 2 r u u') and the energy row
    # (n^2 |g|^2 + |g'|^2) / r + r^3 |f|^2 are polynomials, which each Gauss panel
    # integrates exactly, so only round-off is left
    r, r3, u, du, f, dg_r = [0, 1], [0, 0, 0, 1], [1, 0, 1], [0, 2], [0, 1, -1], [2, -3]
    modes_ = [standard_mode(n) for n in (1, 3, 200)]
    values = curvature._radial_integrals(
        u_quadratic(), [(kind, m) for m in modes_ for kind in ("oracle", "energy")])
    for m in modes_:
        n2 = [m.n ** 2]
        oracle = _exact_integral((n2, r, f, f, u, u), ([2 * m.n ** 2], r, f, f, r, u, du),
                                 (r3, f, f, u, u))
        energy = _exact_integral((n2, r, f, f), (r, dg_r, dg_r), (r3, f, f))
        assert values["oracle", m.n] == pytest.approx(float(oracle), rel=1e-14, abs=0)
        assert values["energy", m.n] == pytest.approx(float(energy), rel=1e-14, abs=0)


_SMALL_RATIONALS = st.fractions(-2, 2, max_denominator=8)


@settings(max_examples=40, deadline=None)
@given(st.fractions(Fraction(1, 8), 2, max_denominator=8), st.lists(_SMALL_RATIONALS, max_size=3),
       st.lists(_SMALL_RATIONALS, min_size=1, max_size=3).filter(any),
       st.integers(1, 10 ** 4))
def test_shared_radial_term_is_exact_for_polynomial_data(u0, u_rest, q, n):
    # with f = 0 both routes are the term they share, 4 pi^2 n^2 int |g|^2 eta / r, and
    # g = r^2 (1 - r) q; u of degree <= 3 and q of degree <= 2 make it a polynomial of
    # degree <= 15, which each Gauss panel integrates exactly.  The data are floats,
    # and the reference is the exact integral of those floats; eta may change sign,
    # so the bound is relative to int |g|^2 |eta| / r
    u = [float(c) for c in (u0, *u_rest)]
    g = [float(c) for c in npoly.polymul([0, 0, Fraction(1), Fraction(-1)], q)]
    p, m = profile_poly(u), mode_poly(n, g)
    du = [k * c for k, c in enumerate(u)][1:] or [0.0]
    U, dU, G = ([Fraction(c) for c in coeffs] for coeffs in (u, du, g))
    exact = _exact_integral((G[1:], G, U, U), ([2], G, G, U, dU))   # g^2 (u^2 / r + 2 u u')
    x, w = gauss_nodes(np.linspace(0.0, 1.0, 65))
    scale = np.sum(w * npoly.polyval(x, g) ** 2 * np.abs(p.eta(x)) / x)
    row, = curvature_table(p, [m])
    for value in (curvature_mode_closed(p, m), curvature_mode_oracle(p, m),
                  row.kbar_closed, row.kbar_oracle):
        assert abs(value - modes.FOUR_PI_SQ * n * n * float(exact)) <= (
            1e-14 * modes.FOUR_PI_SQ * n * n * scale)


def test_oracle_evaluates_no_pressure_at_the_quadrature_nodes(monkeypatch):
    # the assembly's one call (B and B' from one recursion), and none for q' at the
    # quadrature's nodes
    calls = counting(monkeypatch, curvature, "bspline_basis")
    curvature_mode_oracle(u_quadratic(), standard_mode(3))
    assert [args[-1] for args in calls] == [1]


def test_oracle_memory_is_linear_in_the_table_size():
    # a 2001-knot spline f: about 12 000 basis functions, so a dense matrix
    # would take 1.1 GB; the banded assembly and solve peak near 20 MB
    knots = np.linspace(0.0, 1.0, 2001)
    m = FourierMode(3, standard_mode(3).g,
                    ComplexRadialFunction(TableFunction(knots, knots * (1.0 - knots))))
    p = u_quadratic()
    closed = curvature_mode_closed(p, m)
    tracemalloc.start()
    try:
        oracle = curvature_mode_oracle(p, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(oracle - closed) <= 1e-12 * abs(closed)
    assert peak <= 64e6


# ---------------------------------------------------------------------------
# Curvature per mode
# ---------------------------------------------------------------------------

def test_curvature_spot_value():
    # u = 1, n = 1, g = r^2(1-r), f = 0: Kbar = 4 pi^2 int g^2/r = pi^2/15
    m = mode_poly(1, [0, 0, 1, -1])
    assert curvature_mode_closed(u_const(), m) == pytest.approx(PI2 / 15, rel=1e-10)


def test_curvature_pure_swirl_mode_second_term():
    # g = 0, f = r(1-r): only the |H|^2/(r I1^2) term contributes, so Kbar > 0
    # even though eta plays no role
    m = mode_poly(2, [0.0], f_re=[0, 1, -1])
    k = curvature_mode_closed(u_const(), m)
    assert k > 0
    ko = curvature_mode_oracle(u_const(), m)
    assert ko == pytest.approx(k, rel=1e-8)


def test_curvature_n_zero_is_zero():
    m = mode_poly(0, [0.0], f_re=[0, 1, -1])
    assert curvature_mode_closed(u_const(), m) == 0.0
    assert curvature_mode_oracle(u_const(), m) == 0.0


@pytest.mark.parametrize("n", [1, 3, 10])
def test_closed_matches_oracle_complex_mode(n):
    p = u_quadratic()
    rng = np.random.default_rng(17 + n)
    m = random_mode(rng, n=n)
    kc = curvature_mode_closed(p, m)
    ko = curvature_mode_oracle(p, m)
    assert abs(kc - ko) <= 1e-8 * (1.0 + abs(kc))


def test_curvature_quadratic_homogeneity():
    p = u_quadratic()
    m = standard_mode(2)
    k1 = curvature_mode_closed(p, m)
    k3 = curvature_mode_closed(p, scaled_mode(m, 3.0))
    assert k3 == pytest.approx(9.0 * k1, rel=1e-9)
    kj = curvature_mode_closed(p, scaled_mode(m, 1j))
    assert kj == pytest.approx(k1, rel=1e-9)


def test_large_mode_number_no_overflow():
    m = standard_mode(200)
    k = curvature_mode_closed(u_const(), m)
    assert np.isfinite(k) and k > 0


def bump_profile_mode():
    """u = 2 - r^2 with f supported where eta < 0: a negative-curvature section."""
    r = np.linspace(0.0, 1.0, 201)
    vals = np.zeros_like(r)
    inside = (r > 0.7) & (r < 0.9)
    s = (r[inside] - 0.8) / 0.1
    vals[inside] = np.exp(-1.0 / (1.0 - s ** 2))
    f = ComplexRadialFunction(TableFunction(r, vals))
    g = ComplexRadialFunction(TableFunction(r, 40.0 * vals))
    p = RadialProfile(PolynomialFunction([2.0, 0.0, -1.0]))
    return p, FourierMode(1, g, f)


def test_negative_curvature_when_eta_negative():
    p, m = bump_profile_mode()
    kc = curvature_mode_closed(p, m)
    assert kc < 0.0
    ko = curvature_mode_oracle(p, m)
    assert abs(kc - ko) <= 1e-12 * (1.0 + abs(kc))


# ---------------------------------------------------------------------------
# Totals, normalization, reports
# ---------------------------------------------------------------------------

def test_total_is_additive_and_checks_duplicates():
    p = u_const()
    modes = [standard_mode(1), standard_mode(2), standard_mode(5)]
    total = sum(row.kbar_closed for row in curvature_table(p, modes))
    parts = [curvature_mode_closed(p, m) for m in modes]
    assert total == pytest.approx(sum(parts), rel=1e-12)
    with pytest.raises(ValidationError):
        curvature_table(p, [standard_mode(1), standard_mode(1)])


def test_combined_field_oracle_cross_terms_cancel():
    # evaluate <<R(Y,X)X, conj(Y)>> on the superposition Y = Y_1 + Y_2 by brute
    # z-quadrature; the result must equal the sum of the per-mode values
    p = u_quadratic()
    modes = [mode_poly(1, [0, 0, 1, -1], f_re=[0, 1, -1]),
             mode_poly(2, [0, 0, 2, -2], g_im=[0, 0, 1, -1], f_re=[0, -1, 1])]
    r = np.linspace(1e-6, 1.0, 4097)
    nz = 64
    z = 2 * np.pi * np.arange(nz) / nz

    u = np.asarray(p.u(r))
    eta = np.asarray(p.eta(r))
    w_r = np.zeros((r.size, nz), dtype=complex)
    w_th = np.zeros_like(w_r)
    y_r = np.zeros_like(w_r)
    y_th = np.zeros_like(w_r)
    for m in modes:
        q = pressure_bvp_solve(p, m)
        qp = q.q(r, 1)
        g = np.asarray(m.g(r))
        f = np.asarray(m.f(r))
        phase = np.exp(1j * m.n * z)[None, :]
        # radial part of R(Y,X)X contracts with v_r = -(i n / r) g
        w_r += ((-1j * m.n * g * eta / r)[:, None]) * phase
        w_th += (((qp + r * f * u) * u / r)[:, None]) * phase
        y_r += ((-1j * m.n * g / r)[:, None]) * phase
        y_th += (f[:, None]) * phase

    dens = (w_r * np.conj(y_r) + r[:, None] ** 2 * w_th * np.conj(y_th)).real
    dens *= r[:, None]
    combined = 2 * np.pi * simpson(dens.mean(axis=1) * 2 * np.pi, x=r)

    separate = sum(curvature_mode_oracle(p, m) for m in modes)
    assert combined == pytest.approx(separate, abs=1e-6 * (1 + abs(separate)))


def test_normalized_curvature_and_degenerate_section():
    p = u_const()
    m = mode_poly(1, [0, 0, 1, -1])
    kn = curvature_normalized(p, m)
    expected = (PI2 / 15) / (swirl_energy(p) * mode_energy(m))
    assert kn == pytest.approx(expected, rel=1e-10)
    with pytest.raises(DegenerateSectionError):
        curvature_normalized(p, mode_poly(1, [0.0]))


def test_curvature_report_fields():
    p = u_const()
    (rep,) = curvature_table(p, [standard_mode(2)])
    assert rep.n == 2
    assert rep.discrepancy <= 1e-8
    assert rep.kbar_closed > 0 and np.isfinite(rep.k_normalized)


def test_report_nan_normalization_for_divergent_mode():
    # g'(0) != 0: Kbar is still finite but the kinetic-energy normalization is not
    p = u_const()
    m = mode_poly(1, [0.0, 1.0, -1.0])
    (rep,) = curvature_table(p, [m])
    assert np.isfinite(rep.kbar_closed)
    assert math.isnan(rep.k_normalized)


def test_report_runs_closed_route_once_per_mode(monkeypatch):
    # counted as closed-route integrand evaluations: a one-mode table evaluates
    # its mode's closed integrand exactly as often as the closed route alone does
    p = u_quadratic()
    modes = [standard_mode(1), standard_mode(3)]
    expected = [curvature_normalized(p, m) for m in modes]
    calls = counting(monkeypatch, curvature, "_h_ratio")
    for m in modes:
        curvature_mode_closed(p, m)
    alone, calls[:] = calls[:], []
    reports = [curvature_table(p, [m])[0] for m in modes]
    ns = lambda calls: [[m.n for m in args[0]] for args in calls]
    assert ns(calls) == ns(alone) == [[1], [3]]   # one call per first check
    assert [rep.k_normalized for rep in reports] == expected


@pytest.mark.parametrize("stack_rows, stacks", [(curvature.STACK_ROWS, [3, 2, 1]),
                                                 (100, [2, 1, 1, 1, 1])])
def test_table_solves_the_pressure_once_per_knot_vector(monkeypatch, stack_rows, stacks):
    # |n| <= 32 with the same spline knots share the uniform panels (41 band rows),
    # and n, -n share a wall grading (60 rows): three knot vectors, each one stacked
    # banded solve of at most STACK_ROWS rows, whose energies equal those of one
    # mode alone bit for bit
    p, ns = u_quadratic(), [1, 2, 3, 40, -40, 50]
    modes = [standard_mode(n) for n in ns]
    alone = [pressure_bvp_solve(p, m).energy for m in modes]
    calls = counting(monkeypatch, curvature, "solve_banded")
    monkeypatch.setattr(curvature, "STACK_ROWS", stack_rows)
    assert [q.energy for q in curvature._pressure_solutions(p, modes)] == alone
    assert [len(b) for _, _, b in calls] == stacks
    calls[:] = []
    curvature_table(p, modes)
    assert sorted(len(b) for _, _, b in calls) == sorted(stacks)


# radial data as poly, expr or table specs; the 33 table knots are the
# quadrature's uniform panel edges, the 12 are off them (but for 0 and 1)
ON_EDGES, OFF_EDGES = np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, 12)
WAVENUMBERS = [0, 200, 10 ** 4] + [s * k for k in range(1, 41) for s in (1, -1)]
TABLE_PROFILES = [{"poly": [1.0, 0.0, 1.0]}, {"expr": "2 - r^2"},
                  {"table": {"r": OFF_EDGES.tolist(), "values": (1 + OFF_EDGES ** 2).tolist()}},
                  {"table": {"r": ON_EDGES.tolist(), "values": (2 - ON_EDGES ** 2).tolist()}}]


def _spec(form, coeffs):
    """The polynomial with ascending ``coeffs`` as a poly, expr or table spec."""
    coeffs = [float(c) for c in coeffs]
    if form == "poly":
        return {"poly": coeffs}
    if form == "expr":
        return {"expr": " + ".join(f"({c!r})*r^{j}" for j, c in enumerate(coeffs))}
    knots = ON_EDGES if form == "table-on" else OFF_EDGES
    return {"table": {"r": knots.tolist(), "values": npoly.polyval(knots, coeffs).tolist()}}


FORMS = st.sampled_from(["poly", "expr", "table-on", "table-off"])


@st.composite
def table_modes(draw):
    """Config specs of modes with distinct n: g = r^2 (1 - r)(a + b r), or
    a r (1 - r) with g'(0) != 0 (a spline g has g'(0) != 0 too), f = r (1 - r)(c + d r)."""
    specs = []
    for n in draw(st.lists(st.sampled_from(WAVENUMBERS), min_size=1, max_size=20, unique=True)):
        a, b, c, d = (draw(st.floats(-1.0, 1.0)) for _ in range(4))
        g = (npoly.polymul([0.0, 1.0, -1.0], [a]) if draw(st.booleans())
             else npoly.polymul([0.0, 0.0, 1.0, -1.0], [a, b]))
        spec = {"n": n, "g": _spec(draw(FORMS), g),
                "f": _spec(draw(FORMS), npoly.polymul([0.0, 1.0, -1.0], [c, d]))}
        if draw(st.booleans()):
            spec["g_imag"] = _spec(draw(FORMS), npoly.polymul([0.0, 0.0, 1.0, -1.0], [b]))
        specs.append(spec)
    return specs


def _same(a, b):
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


@settings(max_examples=12, deadline=None)
# n = -9 refines to 2048 panels, and the 15 other modes of its block keep their bits
@example(TABLE_PROFILES[2], [
    {"n": n, "g": _spec("poly", npoly.polymul(G_BASE, [1.0, 0.5 * n / 40])),
     "f": _spec("table-off" if n % 3 else "expr", [0.0, 1.0, -1.0])}
    for n in range(-8, 9) if n] + [
    {"n": -9, "g": {"expr": "r^2*(1-r)*sin(2000*pi*r)"}, "f": {"poly": [0, 1, -1]}},
    {"n": 0, "g": {"poly": [0.0]}, "f": {"poly": [0, 1, -1]}}])
@given(st.sampled_from(TABLE_PROFILES), table_modes())
def test_table_equals_one_mode_calls(profile, specs):
    cfg = parse_config({"profile": profile, "modes": specs})
    p, ordered = cfg.profile, sorted(cfg.modes, key=lambda m: m.n)
    rows = curvature.curvature_table(p, cfg.modes)
    assert [row.n for row in rows] == [m.n for m in ordered]
    for row, m in zip(rows, ordered):
        closed, oracle = curvature_mode_closed(p, m), curvature_mode_oracle(p, m)
        try:   # Kbar / (<<X, X>> <<Y, Y>> - <<X, Y>>^2), by swirl_energy and mode_energy
            normalized = curvature_normalized(p, m)
        except (RegularityError, DegenerateSectionError):
            normalized = math.nan
        expected = (closed, oracle, abs(closed - oracle) / (1.0 + abs(closed)), normalized)
        got = (row.kbar_closed, row.kbar_oracle, row.discrepancy, row.k_normalized)
        assert all(map(_same, got, expected)), (m.n, got, expected)


class _RoughSlope(PolynomialFunction):
    """g = r^2 (1 - r) with r |r - 0.3|^-1/4 added to its slope: only |g'|^2 sees it."""

    def __init__(self):
        super().__init__(G_BASE)

    def derivative(self, r):
        return super().derivative(r) + r * np.abs(r - 0.3) ** -0.25


@pytest.mark.parametrize("g, kind, ns, bad_n", [
    (ExpressionFunction("r^2*(1-r)*sqrt((r-0.3)^2)^-0.25"), "closed", range(1, 17), 16),
    (_RoughSlope(), "energy", [1, 9, 10], 9),
], ids=["closed", "energy"])
def test_accuracy_error_names_the_mode_and_the_integral(monkeypatch, g, kind, ns, bad_n):
    # an integrable |r - 0.3|^-1/2 in |g|^2 / r or |g'|^2 / r, which no panel count
    # resolves; every row of the block lies on one panel set, so the one quad_real
    # call that fails names the row that stopped it, and nothing is integrated again
    bad = FourierMode(bad_n, ComplexRadialFunction(g), standard_mode(bad_n).f)
    calls = counting(monkeypatch, curvature, "quad_real")
    with pytest.raises(AccuracyError) as info:
        curvature_table(u_quadratic(), [bad if n == bad_n else standard_mode(n) for n in ns])
    assert len(calls) == 1
    assert str(info.value).startswith(f"n = {bad_n}, {kind} integral: quadrature error estimate ")
    with pytest.raises(AccuracyError) as alone:
        curvature_mode_closed(u_quadratic(), bad) if kind == "closed" else mode_energy(bad)
    assert info.value.value == alone.value.value
    assert info.value.error_estimate == alone.value.error_estimate


def _traced_peak(fn):
    """``fn()``'s result, or the ``AccuracyError`` it raises, and its ``tracemalloc`` peak."""
    tracemalloc.start()
    try:
        try:
            result = fn()
        except AccuracyError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _block_with(g):
    """u = 1 + r^2 and a table block: the standard modes n = 1 ... 15, then n = 16 with
    the expression ``g``, its last row."""
    bad = FourierMode(16, ComplexRadialFunction(ExpressionFunction(g)), standard_mode(16).f)
    return u_quadratic(), [standard_mode(n) for n in range(1, 16)] + [bad]


def test_rows_that_stopped_are_not_evaluated_on_the_finer_panels_of_their_block():
    # n = 16's closed, oracle and energy rows refine far past the first check, where
    # the other 45 rows stop; evaluating those on every finer level peaked at 85 MB
    p, block = _block_with("r^2*(1-r)*sin(2000*pi*r)")
    table, peak = _traced_peak(lambda: curvature_table(p, block))
    assert repr(table[-1]) == repr(curvature_table(p, block[-1:])[0])   # bit for bit
    assert peak < 32e6


def test_a_row_that_exhausts_the_panels_fails_its_block_in_bounded_memory():
    # |r - 0.3|^-1/2 in n = 16's |g|^2 / r: its closed row exhausts MAX_PANELS while
    # the other rows stopped at the first check (338 MB when they were evaluated)
    p, block = _block_with("r^2*(1-r)*sqrt(sqrt((r-0.3)^2))^(-0.5)")
    error, peak = _traced_peak(lambda: curvature_table(p, block))
    with pytest.raises(AccuracyError) as alone:
        curvature_table(p, block[-1:])
    assert isinstance(error, AccuracyError) and str(error) == str(alone.value)
    assert peak < 64e6


@pytest.mark.parametrize("specs, integrals", [
    ([{"n": n, "g": {"poly": G_BASE}, "f": {"poly": [0, 1, -1]}} for n in range(1, 18)], 1),
    ([{"n": 0, "g": {"poly": [0, 1]}}], 0),
], ids=["two-blocks", "no-energy-row"])
def test_curvature_integrates_the_swirl_energy_once(tmp_path, monkeypatch, specs, integrals):
    # <<X, X>> is shared by every mode of every block, and not integrated for a
    # table whose modes all have g'(0) != 0 (k_normalized is nan for each)
    calls = counting(monkeypatch, curvature, "swirl_energy")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": {"poly": [1.0, 0.0, 1.0]}, "modes": specs}))
    assert main(["curvature", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == integrals


def test_closed_route_evaluates_bessel_twice_per_node(monkeypatch):
    points, nodes = [], []

    def sizing(fn, sizes):
        return lambda x: sizes.append(np.size(x)) or fn(x)

    quad = curvature.quad_real
    monkeypatch.setattr(curvature, "sp", SimpleNamespace(i0e=sizing(special.i0e, points),
                                                         i1e=sizing(special.i1e, points)))
    monkeypatch.setattr(curvature, "quad_real",
                        lambda fn, *args, **kw: quad(sizing(fn, nodes), *args, **kw))
    curvature_mode_closed(u_quadratic(), standard_mode(3))
    assert sum(nodes) > 0
    assert sum(points) == 2 * sum(nodes)


# ---------------------------------------------------------------------------
# Oscillation study
# ---------------------------------------------------------------------------

def test_oscillation_study_names_the_wavenumber_that_fails():
    # sin^2(k pi r) needs more than MAX_PANELS panels from k ~ 7850 on: the last
    # block, 7889 ... 7904, runs first and its first k stops its quad_real call
    with pytest.raises(AccuracyError, match="^k = 7889: quadrature error estimate "):
        oscillation_study(u_const(), 1, 7904)


def test_oscillation_study_decreases():
    rows = oscillation_study(u_const(), 1, 12)
    vals = [v for _, v in rows]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(InvalidModeError):
        oscillation_study(u_const(), 0, 2)


def _oscillation_row(p, n, k):
    """One k of the oscillation study, by two scalar quadrature calls on the
    study's panels, split at u's knots, with np.sin and np.cos of k pi r."""
    w = k * np.pi
    numerator = quad_real(lambda r: n * n * np.sin(w * r) ** 2 * p.eta(r) / r, 0.0, 1.0,
                          points=p.u.knots)
    denominator = quad_real(
        lambda r: n * n * np.sin(w * r) ** 2 / r + (w * np.cos(w * r)) ** 2, 0.0, 1.0,
        points=p.u.knots)
    return numerator / (swirl_energy(p) * denominator)


@pytest.mark.parametrize("p, n", [
    (u_quadratic(), 3),
    (RadialProfile(TableFunction(ON_EDGES, 1.0 + ON_EDGES ** 2)), 1),
    # knots off the 1/32 panel edges split the denominator's panels too: against
    # panels not split there it moves by at most 3.9e-16 relative
    (RadialProfile(TableFunction(OFF_EDGES, 2.0 - OFF_EDGES ** 2)), 2),
], ids=["1+r^2", "table", "table-off-edges"])
def test_blocked_oscillation_study_equals_one_k_at_a_time(p, n):
    # k = 1 ... 40 crosses the block ends at 16/17 and 32/33; the block's harmonics
    # come by rotation, within 2e-15 of np.sin and np.cos at k <= 64
    assert curvature.BLOCK == 16
    ks = range(1, 41)
    rows = oscillation_study(p, n, 40)
    assert [k for k, _ in rows] == list(ks)
    np.testing.assert_allclose([v for _, v in rows], [_oscillation_row(p, n, k) for k in ks],
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("u, n", [([1.0], 1), ([1.0], 3), ([1.0, 0.0, 1.0], 1),
                                  ([1.0, 0.0, 1.0], 3)], ids=["1-1", "1-3", "1+r^2-1", "1+r^2-3"])
def test_oscillation_study_matches_mpmath(u, n):
    # one study over k = 1 ... 64, so the references sit at both ends of its blocks
    values = dict(oscillation_study(profile_poly(u), n, 64))
    refs = [(k, float(value)) for uu, nn, k, value in OSCILLATION_REFERENCES if (uu, nn) == (u, n)]
    assert [k for k, _ in refs] == [1, 16, 17, 48, 64]
    for k, value in refs:
        assert values[k] == pytest.approx(value, rel=1e-14, abs=0)


def test_row_integrands_return_the_rows_their_mask_marks_open(monkeypatch):
    # every mask, including a numerator stopped while its denominator is open,
    # gives the rows of the all-open call that it marks, bit for bit
    x, rng, calls = gauss_nodes(panel_edges(0.0, 1.0))[0].ravel(), np.random.default_rng(7), []

    def check(fn, *args, rows, **kwargs):
        rows[...] = True
        every = fn(x)
        for _ in range(30):
            rows[...] = rng.random(rows.size) < 0.3
            rows[rng.integers(rows.size)] = True   # the integrand runs with a row open
            np.testing.assert_array_equal(fn(x), every[rows])
        calls.append(rows.size)
        return quad_real(fn, *args, rows=rows, **kwargs)

    monkeypatch.setattr(curvature, "quad_real", check)
    oscillation_study(u_quadratic(), 3, 20)
    curvature_table(u_quadratic(), [standard_mode(n) for n in (1, 2, 40)])
    assert calls == [9, 32, 9]   # k = 17 ... 20 and the swirl energy, k = 1 ... 16, the table


def test_oscillation_study_integrates_the_swirl_energy_in_its_first_call(monkeypatch):
    p, values = u_quadratic(), []
    quad = curvature.quad_real
    monkeypatch.setattr(curvature, "quad_real",
                        lambda *args, **kw: values.append(quad(*args, **kw)) or values[-1])
    monkeypatch.setattr(curvature, "swirl_energy", None)   # not called
    oscillation_study(p, 3, 40)
    # the largest k first: 8 numerators, 8 denominators and <<X, X>>, then two blocks of 16
    assert [v.size for v in values] == [17, 32, 32]
    assert modes.FOUR_PI_SQ * values[0][-1] == swirl_energy(p)


class _HugeU:
    """u = 1e200 on no knots: r^3 u^2 overflows."""

    knots = np.array([])

    def __call__(self, r):
        return np.full_like(r, 1e200)


def test_oscillation_study_names_the_swirl_energy_when_it_fails():
    p = SimpleNamespace(u=_HugeU(), eta=np.ones_like)   # eta = 1 keeps every k finite
    with np.errstate(over="ignore"), pytest.raises(AccuracyError,
                                                   match="^swirl energy: quadrature sum inf"):
        oscillation_study(p, 1, 4)


def test_oscillation_study_memory_is_bounded_by_the_block():
    # one call over all 256 wavenumbers peaks at about 31 MB, blocks of 16 at 3.9 MB
    tracemalloc.start()
    try:
        oscillation_study(u_const(), 1, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_oscillation_study_to_k_1024_stays_within_its_memory():
    # the blocks of large k refine to 2048 panels, where their denominators have
    # stopped and are not evaluated (11 MB traced when every row was)
    _, peak = _traced_peak(lambda: oscillation_study(u_quadratic(), 3, 1024))
    assert peak <= 14e6


# ---------------------------------------------------------------------------
# Third reference (mpmath) and properties over random admissible modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u, n, g, f, kbar", KBAR_REFERENCES)
def test_closed_route_matches_mpmath_reference(u, n, g, f, kbar):
    m = mode_poly(n, [complex(c).real for c in g], [complex(c).imag for c in g],
                  [complex(c).real for c in f], [complex(c).imag for c in f])
    assert curvature_mode_closed(profile_poly(u), m) == pytest.approx(float(kbar), rel=1e-12)


_COEF = st.floats(-1.0, 1.0)


def _admissible_mode(n, g_lead, g_re, g_im, f_re, f_im):
    """g = r^2 (1 - r) * cubic (leading real coefficient nonzero), f = r * quadratic."""
    return mode_poly(n, npoly.polymul(G_BASE, [g_lead] + g_re), npoly.polymul(G_BASE, g_im),
                     npoly.polymul([0.0, 1.0], f_re), npoly.polymul([0.0, 1.0], f_im))


admissible_modes = st.builds(
    _admissible_mode, st.integers(1, 64), st.floats(0.1, 1.0),
    st.lists(_COEF, min_size=3, max_size=3), st.lists(_COEF, min_size=4, max_size=4),
    st.lists(_COEF, min_size=3, max_size=3), st.lists(_COEF, min_size=3, max_size=3))
profiles = st.sampled_from([u_const, u_quadratic, u_decreasing])
PROPERTY = settings(max_examples=12)


@PROPERTY
@given(profiles, admissible_modes)
def test_property_closed_matches_oracle(profile, m):
    p = profile()
    kc = curvature_mode_closed(p, m)
    ko = curvature_mode_oracle(p, m)
    assert abs(kc - ko) / (1.0 + abs(kc)) <= 1e-6


@PROPERTY
@given(profiles, admissible_modes, st.floats(0.1, 10.0), st.floats(0.0, 2 * math.pi))
def test_property_quadratic_homogeneity(profile, m, rho, theta):
    p = profile()
    c = rho * complex(math.cos(theta), math.sin(theta))
    k = curvature_mode_closed(p, m)
    assert curvature_mode_closed(p, scaled_mode(m, c)) == pytest.approx(rho ** 2 * k, rel=1e-12)


@PROPERTY
@given(st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3), st.floats(0.1, 2.0),
       admissible_modes)
def test_property_positive_eta_gives_positive_curvature(tail, head, m):
    # u > 0 with nonnegative coefficients has u' >= 0, so eta = u^2 + 2 r u u' > 0
    p = profile_poly([head] + tail)
    assert curvature_mode_closed(p, m) > 0.0
