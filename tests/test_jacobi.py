import ast
import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legder, legvander
from scipy.special import jn_zeros

import swirlcurv.jacobi as jacobi
from swirlcurv import (AccuracyError, InvalidModeError, JacobiSolution, RadialProfile, TableFunction, ValidationError,
                       assemble_jacobi, conjugate_times, jacobi_residuals, parse_config,
                       sl_spectra, sl_spectrum)
from swirlcurv.cli import main
from swirlcurv.quadrature import gauss_nodes, panel_edges, quad_real

from _helpers import (counting, fixed_size_spectrum, galerkin, profile_poly, u_const,
                      u_quadratic)
from _oracles import SL_REFERENCES, j1_zeros, sl_mpmath


J1_ZEROS = j1_zeros(12)


def exact_lambda(m, n):
    """For u = 1 the eigenvalues are sqrt(j_{1,m}^2 + n^2) / 2."""
    return math.sqrt(J1_ZEROS[m - 1] ** 2 + n ** 2) / 2.0


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

def test_constant_profile_spectrum_matches_bessel_zeros():
    s = sl_spectrum(u_const(), 1, 3)
    for m in (1, 2, 3):
        assert s.eigenvalues[m - 1] == pytest.approx(exact_lambda(m, 1), abs=1e-8)
    assert np.all(np.diff(s.eigenvalues) > 0)
    assert np.all(s.error_estimates < 1e-6)


def test_each_grid_level_solved_once(monkeypatch):
    # u = 1 + r^2, n = 1, m_max = 20 starts at K = 40 and settles between 80 and
    # 160, so each basis size is solved once and the K = 160 values are reported
    p = u_quadratic()
    lam80, _ = galerkin(p, 80, 1, 20)
    lam160, coef160 = galerkin(p, 160, 1, 20)
    calls = counting(monkeypatch, jacobi, "_galerkin")
    s = sl_spectrum(p, 1, 20)
    assert [basis[0].shape[-1] for basis, *_ in calls] == [40, 80, 160]
    assert np.array_equal(s.eigenvalues, lam160)
    assert np.array_equal(s.coef, coef160)
    assert np.array_equal(s.error_estimates, np.abs(lam160 - lam80) / lam160)


def test_spectrum_assembles_each_basis_size_once_per_sweep(monkeypatch):
    # n enters the pencil only as A + n^2 B: u = 1, n = 1 ... 10 solves at K = 16
    # and 32, one assembly each
    calls = counting(monkeypatch, jacobi, "_pencil")
    spectra = sl_spectra(u_const(), range(1, 11), 3)
    assert [K for _, K in calls] == [16, 32]
    monkeypatch.undo()
    for n, s in enumerate(spectra, start=1):
        alone = sl_spectrum(u_const(), n, 3)
        assert np.array_equal(s.eigenvalues, alone.eigenvalues)
        assert np.array_equal(s.coef, alone.coef)


def legendre_pencil(p, K):
    """``jacobi._pencil`` built another way, as the oracle of its recurrence: a
    Legendre Vandermonde, legder's derivative matrix and the bubble r^2 (1 - r)
    as a Legendre series."""
    x, w = gauss_nodes(panel_edges(0.0, 1.0, p.u.knots, K))
    r, w = x.ravel(), w.ravel()
    P = legvander(2.0 * r - 1.0, K - 1)
    dP = legvander(2.0 * r - 1.0, K - 2) @ legder(np.eye(K), scl=2.0)
    b, db = jacobi._BUBBLE(r)[:, None], jacobi._BUBBLE.deriv()(r)[:, None]
    phi, dphi = b * P, db * P + b * dP
    weight = 2.0 * p.u(r) * p.omega(r) / r
    return ((dphi.T * (w / r)) @ dphi, (phi.T * (w / r)) @ phi,
            (phi.T * (w * weight)) @ phi, phi)


@pytest.mark.parametrize("K", [16, 32, 64, 128, 192])
def test_pencil_derivative_matrix_is_legders(K):
    # the recurrence's P' gives the stiffness of legder's to round-off: 8.9e-16 of
    # the largest entry at most, measured over K = 16 ... 192
    A, ref = jacobi._pencil(u_quadratic(), K)[0], legendre_pencil(u_quadratic(), K)[0]
    assert np.max(np.abs(A - ref)) <= 2e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("K", [16, 32, 64, 128, 192])
@pytest.mark.parametrize("name", ["one", "quad", "expr", "table"])
def test_recurrence_pencil_is_the_vandermonde_one(name, K):
    # A, B, M and the basis values, each within 2e-15 of its largest entry
    # (8.9e-16 measured); the table's knots split the panels of both alike.  M is
    # assembled on u and omega times the power of two ``scale``, which rounds nothing
    p = parse_config({"profile": SWEEP_PROFILES[name]}).profile
    A, B, M, phi, scale = jacobi._pencil(p, K)
    for got, ref in zip((A, B, M / scale ** 2, phi), legendre_pencil(p, K)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["one", "quad", "expr", "table"])
def test_error_estimate_is_the_change_between_two_own_pencils(name):
    # each n here settles at K = 32; its error estimate is the change from K = 16,
    # each size solved on a pencil of its own rule
    p = parse_config({"profile": SWEEP_PROFILES[name]}).profile
    for n in (1, 3, 7):
        (lam16, _), (lam32, _) = galerkin(p, 16, n, 3), galerkin(p, 32, n, 3)
        s = sl_spectrum(p, n, 3)
        assert np.array_equal(s.eigenvalues, lam32)
        assert np.array_equal(s.error_estimates, np.abs(lam32 - lam16) / lam32)


def test_spectrum_panels_are_the_quadratures(monkeypatch):
    # a table knot 5e-13 past the uniform edge 0.5 splits off no sliver panel: the
    # first assembly, for K = 16, is on the Gauss nodes of
    # panel_edges(0, 1, knots, 16)
    r = np.linspace(0.0, 1.0, 9)   # every other knot on a uniform edge
    r[4] += 5e-13
    p = RadialProfile(TableFunction(r, 1.0 + r ** 2))
    calls = counting(monkeypatch, jacobi, "gauss_nodes")
    sl_spectrum(p, 1, 1)
    edges = calls[0][0]
    assert edges.size == 17 and np.min(np.diff(edges)) > 1e-3
    assert np.array_equal(edges, panel_edges(0.0, 1.0, r, 16))


SWEEP_PROFILES = {"one": {"poly": [1.0]}, "quad": {"poly": [1.0, 0.0, 1.0]},
                  "expr": {"expr": "1 + r^2*exp(-r)"},
                  "table": {"table": {"r": np.linspace(0.0, 1.0, 9).tolist(),
                                      "values": (1.0 + np.linspace(0.0, 1.0, 9) ** 2).tolist()}}}


@pytest.mark.parametrize("name", sorted(SWEEP_PROFILES))
@pytest.mark.parametrize("n_list", [list(range(1, 41)), [-7, 3, 7, -1, 12]],
                         ids=["one-to-forty", "both-signs"])
def test_sweep_equals_a_solve_per_wavenumber(name, n_list):
    # 1 ... 40 crosses the BLOCK of stacked pencils; -n and n share a pencil
    sweep = sl_spectra(parse_config({"profile": SWEEP_PROFILES[name]}).profile, n_list, 3)
    p = parse_config({"profile": SWEEP_PROFILES[name]}).profile
    assert [s.n for s in sweep] == n_list
    for s in sweep:
        alone = sl_spectrum(p, s.n, 3)
        assert np.array_equal(s.eigenvalues, alone.eigenvalues)
        assert np.array_equal(s.error_estimates, alone.error_estimates)
        assert np.array_equal(s.coef, alone.coef)


def test_each_distinct_wavenumber_is_solved_once(monkeypatch):
    # n and -n share the pencil A + n^2 B: +-1 ... +-20 makes the eigensolves of
    # 1 ... 20, 5 stacks of 44 pencils in all, and -n gets the arrays of n
    p, calls = u_quadratic(), []

    def shapes():
        return [(len(block), basis[0].shape[-1]) for basis, block, _ in calls]
    counting(monkeypatch, jacobi, "_galerkin", calls)
    positive = sl_spectra(p, range(1, 21), 3)
    positive_shapes, calls[:] = shapes(), []
    both = sl_spectra(p, [sign * n for n in range(1, 21) for sign in (-1, 1)], 3)
    assert shapes() == positive_shapes and len(calls) == 5
    assert sum(s[0] for s in positive_shapes) == 44
    for k, s in enumerate(both):
        twin = positive[k // 2]
        assert s.n == (-1) ** (k + 1) * twin.n
        assert s.eigenvalues is both[k ^ 1].eigenvalues and s.coef is both[k ^ 1].coef
        assert np.array_equal(s.eigenvalues, twin.eigenvalues)
        assert np.array_equal(s.error_estimates, twin.error_estimates)
        assert np.array_equal(s.coef, twin.coef)


def test_spectrum_other_wavenumbers():
    for n in (2, 5):
        s = sl_spectrum(u_const(), n, 2)
        for m in (1, 2):
            assert s.eigenvalues[m - 1] == pytest.approx(exact_lambda(m, n), abs=1e-7)


def test_negative_n_same_spectrum():
    s_pos = sl_spectrum(u_const(), 3, 2)
    s_neg = sl_spectrum(u_const(), -3, 2)
    np.testing.assert_allclose(s_pos.eigenvalues, s_neg.eigenvalues, rtol=1e-12)


def sign_changes(phi) -> int:
    """Interior sign changes of phi on a fine grid (Sturm: m - 1 for phi_m)."""
    v = phi(np.linspace(0.0, 1.0, 4001)[1:-1])
    return int(np.sum(v[:-1] * v[1:] < 0.0))


def test_eigenfunction_oscillation_counts():
    s = sl_spectrum(u_quadratic(), 2, 4)
    for m in (1, 2, 3, 4):
        assert sign_changes(s.eigenfunction(m)) == m - 1


def weight_norm(p, phi) -> float:
    return quad_real(lambda r: 2.0 * p.u(r) * p.omega(r) / r * phi(r) ** 2, 0.0, 1.0)


def test_eigenfunction_boundary_values_and_rayleigh():
    p = u_quadratic()
    s = sl_spectrum(p, 1, 3)
    for m in (1, 2, 3):
        phi, dphi = s.eigenfunction(m), s.eigenfunction(m).deriv()
        assert abs(phi(0.0)) < 1e-14 and abs(phi(1.0)) < 1e-14
        norm = weight_norm(p, phi)
        assert norm == pytest.approx(1.0, abs=1e-10)
        dirichlet = quad_real(lambda r: (dphi(r) ** 2 + s.n ** 2 * phi(r) ** 2) / r, 0.0, 1.0)
        assert dirichlet / norm == pytest.approx(s.eigenvalues[m - 1] ** 2, rel=1e-10)


@pytest.mark.parametrize("u,n,values", SL_REFERENCES)
def test_spectrum_matches_frobenius_references(u, n, values):
    s = sl_spectrum(profile_poly(u), n, len(values))
    np.testing.assert_allclose(s.eigenvalues, [float(v) for v in values], rtol=1e-11, atol=0)


def test_constant_profile_spectrum_matches_bessel_zeros_to_1e_11():
    # 9.5e-15 measured, over m <= 12 and n <= 10
    for n in range(1, 11):
        s = sl_spectrum(u_const(), n, 12)
        np.testing.assert_allclose(s.eigenvalues, [exact_lambda(m, n) for m in range(1, 13)],
                                   rtol=1e-13, atol=0)


@pytest.mark.parametrize("profile_fn", [u_const, u_quadratic])
@pytest.mark.parametrize("n", [1, 10])
def test_forty_eigenvalues_converge(profile_fn, n):
    s = sl_spectrum(profile_fn(), n, 40)
    assert np.all(np.diff(s.eigenvalues) > 0) and np.all(s.error_estimates <= jacobi.TOL)
    if profile_fn is u_const:
        exact = np.sqrt(jn_zeros(1, 40) ** 2 + n * n) / 2.0
        np.testing.assert_allclose(s.eigenvalues, exact, rtol=1e-8, atol=0)


def test_hundred_eigenvalues_exceed_the_basis():
    with pytest.raises(AccuracyError):
        sl_spectrum(u_const(), 1, 100)


@settings(max_examples=12)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 20), st.integers(1, 4))
def test_property_spectrum(a, b, n, m_max):
    # u = 1 + a r + b r^2 with a, b >= 0 has u, u' >= 0, so u * omega > 0
    p = profile_poly([1.0, a, b])
    s = sl_spectrum(p, n, m_max)
    assert np.all(np.diff(s.eigenvalues) > 0)
    for m in range(1, m_max + 1):
        assert sign_changes(s.eigenfunction(m)) == m - 1
        assert weight_norm(p, s.eigenfunction(m)) == pytest.approx(1.0, abs=1e-10)
        assert np.max(list(jacobi_residuals(assemble_jacobi(p, s, m)).values())) <= 1e-8


def test_spectrum_validation():
    with pytest.raises(InvalidModeError):
        sl_spectrum(u_const(), 0, 1)
    with pytest.raises(InvalidModeError):
        sl_spectra(u_const(), [2, 1, 0], 1)
    with pytest.raises(ValidationError):
        sl_spectrum(u_const(), 1, 0)


@pytest.mark.parametrize("coeffs", [[2.0, 0.0, -1.0], [0.0, 1.0]], ids=["2-r^2", "r"])
def test_u_omega_zero_at_an_end_is_solved(coeffs):
    # u = 2 - r^2 has u*omega = 0 at r = 1; u = r has u*omega = 0 on the axis
    p = profile_poly(coeffs)
    s = sl_spectrum(p, 1, 3)
    for m, lam in enumerate(s.eigenvalues, start=1):
        assert lam == pytest.approx(float(sl_mpmath(coeffs, 1, lam)), rel=1e-12, abs=0)
        assert sign_changes(s.eigenfunction(m)) == m - 1
        assert weight_norm(p, s.eigenfunction(m)) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=15, deadline=None)
@example(0.0, -3.0, 1, 3)    # u omega < 0 on (0.408, 0.577): lambda_1 = 1.855598...
@example(0.0, -3.0, 4, 3)    # 2.255976...
@example(0.0, -3.0, 16, 3)   # 4.386795...
@example(0.0, -1.0, 2, 3)    # u = 2 - r^2 up to scale: u omega = 0 at the wall
@given(st.floats(-2.0, 1.0), st.floats(-4.0, 1.0), st.integers(-32, 32).filter(bool),
       st.integers(1, 3))
def test_sign_changing_weight_matches_the_frobenius_series(c1, c2, n, m_max):
    # u = 1 + c1 r + c2 r^2: u omega changes sign on (0, 1) for part of the space.
    # Each lambda is a root of the series solution's phi(1); eigenfunction m has
    # m - 1 interior zeros, which makes lambda the m-th positive eigenvalue; and
    # jacobi publishes each field only when it passes its equations
    coeffs = [1.0, c1, c2]
    p = profile_poly(coeffs)
    s = sl_spectrum(p, n, m_max)
    for m, lam in enumerate(s.eigenvalues, start=1):
        assert lam == pytest.approx(float(sl_mpmath(coeffs, abs(n), lam)), rel=1e-10, abs=0)
        assert sign_changes(s.eigenfunction(m)) == m - 1
        err = io.StringIO()
        config = {"profile": {"poly": coeffs}, "params": {"n": n, "m": m}}
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            Path(tmp, "cfg.json").write_text(json.dumps(config))
            code = main(["jacobi", "--config", str(Path(tmp, "cfg.json")), "--out", tmp,
                         "--quiet"])
            report = (json.loads(Path(tmp, "jacobi_residuals.json").read_text())
                      if code == 0 else None)
        if code == 0:
            assert max(v for k, v in report.items() if k.startswith("residual_")) \
                <= jacobi.RESIDUAL_TOL
        else:
            payload = json.loads(err.getvalue())
            assert payload["error"] == "AccuracyError"
            assert payload["message"].startswith(f"n = {n}, m = {m}: ")


def f_max(coeffs) -> float:
    """max of F = 2 u omega on [0, 1] for the polynomial u of ``coeffs``: F at the
    ends and at the real part of every root of F' that lies in [0, 1], where F can
    only read below its maximum.  Coefficients of F' below 1e-12 are dropped from
    the top, whose roots would overflow the companion matrix and lie far past 1."""
    u = np.polynomial.Polynomial(coeffs)
    F = 2.0 * u * (2.0 * u + np.polynomial.Polynomial([0.0, 1.0]) * u.deriv())
    r = F.deriv().trim(1e-12).roots().real
    return float(np.max(F(np.concatenate([[0.0, 1.0], r[(r >= 0.0) & (r <= 1.0)]]))))


@settings(max_examples=64)
@example(0.0, 0.0, 0.0, 128, 1)   # u = 1: lambda_1 sqrt(F_max) / n = 1.000448
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.integers(-128, 128).filter(bool), st.integers(1, 3))
def test_every_eigenvalue_is_above_the_floor(c1, c2, c3, n, m_max):
    # with F = 2 u omega, lambda^2 int (F/r) phi^2 = int phi'^2/r + n^2 int phi^2/r
    # > n^2 int phi^2/r >= (n^2 / F_max) int (F/r) phi^2, so lambda / |n| > F_max^-1/2
    # for every m and n, also where F changes sign
    coeffs = [1.0, c1, c2, c3]
    (s,) = sl_spectra(profile_poly(coeffs), [n], m_max)
    assert np.all(s.eigenvalues / abs(n) > f_max(coeffs) ** -0.5)


# u' jumps at 0.3, where the K-panel rule has no edge for most K
KINK = {"profile": {"expr": "1 + r^2 + 0.2*sqrt((r - 0.3)^2)"},
        "params": {"n_list": [1, 4], "m_max": 1}}
# lambda_1 at n = 1: scipy DOP853 at rtol 1e-13 on [0, 0.3] and [0.3, 1], brentq on phi(1)
KINK_LAMBDA = 1.2019575720832076


def test_kink_is_refused_or_right(tmp_path, capsys):
    # two basis sizes that share one quadrature rule agree on that rule's error:
    # this spectrum must settle to the right lambda or say that it did not settle
    try:
        lam = sl_spectra(parse_config(KINK).profile, [1, 4], 1)[0].eigenvalues[0]
    except AccuracyError as exc:
        assert str(exc).startswith("n = 1: ")
    else:
        assert abs(lam - KINK_LAMBDA) <= 1e-9
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(KINK))
    code = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
    if code == 1:
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"].startswith("n = 1: ")
        assert not (tmp_path / "spectrum.csv").exists()
    else:
        rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
        assert code == 0 and abs(rows[0, 2] - KINK_LAMBDA) <= 1e-9


def test_conjugate_times_values():
    s = sl_spectrum(u_const(), 1, 1)
    (m, t_star), = conjugate_times(s)
    assert m == 1
    assert t_star == pytest.approx(2 * math.pi * exact_lambda(1, 1), abs=1e-7)
    s2 = sl_spectrum(u_const(), 2, 1)
    (_, t2), = conjugate_times(s2)
    assert t2 == pytest.approx(math.pi * exact_lambda(1, 2), abs=1e-7)
    assert t2 < t_star  # higher wavenumbers conjugate earlier


def test_lambda_over_n_limit_one_half():
    ratios = {s.n: float(s.eigenvalues[0] / abs(s.n))
              for s in sl_spectra(u_const(), [4, 8, 16, 32, 64], 1)}
    assert abs(ratios[64] - 0.5) < 1e-3
    diffs = [abs(ratios[b] - ratios[a]) for a, b in ((4, 8), (8, 16), (16, 32), (32, 64))]
    assert all(d2 < d1 / 2 for d1, d2 in zip(diffs, diffs[1:]))


# ---------------------------------------------------------------------------
# Jacobi fields and residuals
# ---------------------------------------------------------------------------

def test_jacobi_field_vanishes_at_zero_and_t_star():
    s = sl_spectrum(u_quadratic(), 2, 2)
    sol = assemble_jacobi(u_quadratic(), s, 1)
    r = np.linspace(0.1, 0.95, 40)[:, None]
    z = np.linspace(0.0, 2 * np.pi, 9)[None, :]
    scale = np.max(np.abs(sol.fields(0.25 * sol.t_star, r, z)["g"]))
    for t in (0.0, sol.t_star):
        fields = sol.fields(t, r, z)
        assert np.max(np.abs(fields["g"])) < 1e-10 * scale
        assert np.max(np.abs(fields["f"])) < 1e-10 * scale


def test_jacobi_f_amplitude_peaks_at_half_period():
    s = sl_spectrum(u_const(), 1, 1)
    sol = assemble_jacobi(u_const(), s, 1)
    r = np.linspace(0.2, 0.9, 20)[:, None]
    z = np.array([[np.pi / 2]])
    f_half = np.max(np.abs(sol.fields(0.5 * sol.t_star, r, z)["f"]))
    f_quarter = np.max(np.abs(sol.fields(0.25 * sol.t_star, r, z)["f"]))
    assert f_half == pytest.approx(2.0 * f_quarter, rel=1e-9)


@pytest.mark.parametrize("profile_fn,n,m", [(u_const, 1, 1), (u_const, 3, 2),
                                            (u_quadratic, 2, 1)])
def test_residuals_small(profile_fn, n, m):
    p = profile_fn()
    s = sl_spectrum(p, n, m)
    sol = assemble_jacobi(p, s, m)
    rep = jacobi_residuals(sol)
    assert np.max(list(rep.values())) < 1e-6


def test_residuals_sample_one_period_in_z(monkeypatch):
    # every field is one harmonic cos/sin(n z): 16 points on one period serve any n
    calls = counting(monkeypatch, jacobi, "_dz")
    p = u_const()
    rep = jacobi_residuals(assemble_jacobi(p, sl_spectrum(p, 500, 1), 1))
    assert len(calls) == 4 and {field.shape[-1] for field, *_ in calls} == {16}
    assert np.max(list(rep.values())) < 1e-10


def fft_dz(field, n, order):
    """d/dz of order 1 or 2 by numpy.fft along the last axis, z on one period 2pi/|n|."""
    k = abs(n) * np.fft.fftfreq(field.shape[-1], d=1.0 / field.shape[-1])
    return np.real(np.fft.ifft((1j * k) ** order * np.fft.fft(field, axis=-1), axis=-1))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [1, -2, 500, 10 ** 4])
def test_derivative_matrices_are_the_fft_derivative(n, order):
    # every harmonic cos(k x) and sin(k x) of 16 points, k = 0 ... 8, x = |n| z:
    # 5.9e-15 (order 1) and 5.7e-14 (order 2) of |n|^order measured
    x = 2.0 * np.pi * np.arange(16) / 16
    fields = np.array([f(k * x) for k in range(9) for f in (np.cos, np.sin)])
    err = np.max(np.abs(jacobi._dz(fields, n, order) - fft_dz(fields, n, order)))
    assert err <= [1e-14, 1e-13][order - 1] * abs(n) ** order


def test_residuals_fall_with_basis_size():
    # spectral convergence: K = 8 -> 16 cuts the residual by far more than the
    # factor 4 a second-order scheme gains per doubling
    p = u_quadratic()
    res = {}
    for K in (8, 16):
        rep = jacobi_residuals(assemble_jacobi(p, fixed_size_spectrum(p, 1, K), 1))
        res[K] = np.maximum(rep["residual_stream_transport"], rep["residual_second_order"])
    assert res[16] < res[8] / 100.0


def test_residual_detects_wrong_eigenvalue():
    p = u_const()
    s = sl_spectrum(p, 1, 1)
    good = assemble_jacobi(p, s, 1)
    # a wrong eigenvalue in the closed forms, the eigenfunction left alone
    lam = float(s.eigenvalues[0]) * 1.01
    bad = dataclasses.replace(good, lam=lam, t_star=float(2.0 * np.pi * lam / abs(s.n)))
    rep_good = np.max(list(jacobi_residuals(good).values()))
    rep_bad = np.max(list(jacobi_residuals(bad).values()))
    assert rep_bad > 100 * rep_good
    assert rep_bad > 1e-3


def test_sine_branch_residuals_and_secular_term():
    p = u_quadratic()
    s = sl_spectrum(p, 2, 1)
    sol = assemble_jacobi(p, s, 1, phase="sin")
    rep = jacobi_residuals(sol)
    assert np.max(list(rep.values())) < 1e-6
    # the secular u'(r) t term keeps f from re-vanishing at t*
    r = np.linspace(0.2, 0.9, 20)[:, None]
    z = np.array([[np.pi / 4]])
    scale = np.max(np.abs(sol.fields(0.25 * sol.t_star, r, z)["f"]))
    assert np.max(np.abs(sol.fields(sol.t_star, r, z)["f"])) > 0.1 * scale


@pytest.mark.parametrize("phase", ["cos", "sin"])
def test_time_factors_differentiate_into_each_other(phase):
    # G' = T, so dg/dt = h with no field of its own, and T' = dT, by central differences
    T, dT, G = jacobi._TIME_FACTORS[phase]
    theta, step = np.linspace(-7.0, 7.0, 12), 1e-5
    assert G(0.0) == 0.0
    for fn, slope in ((G, T), (T, dT)):
        central = (fn(theta + step) - fn(theta - step)) / (2.0 * step)
        np.testing.assert_allclose(central, slope(theta), rtol=0, atol=1e-9)


def per_phase_closed_forms(sol, p, t, r, z):
    """The six fields written out separately for each phase, as references."""
    lam, n, th = sol.lam, sol.n, sol.n * t / sol.lam
    phi, u, up, om = sol._phi(r), p.u(r), p.u.derivative(r), p.omega(r)
    cz, sz, c, s = np.cos(n * z), np.sin(n * z), np.cos(th), np.sin(th)
    if sol.phase == "cos":
        return {"h": c * phi * cz, "j": -(lam * om / r ** 2) * phi * sz * s,
                "g": (lam / n) * cz * s * phi,
                "f": (2.0 * lam ** 2 * u / (n * r ** 2)) * sz * (c - 1.0) * phi,
                "dj_dt": -(n * om / r ** 2) * phi * sz * c,
                "df_dt": -(2.0 * lam * u / r ** 2) * sz * s * phi}
    return {"h": s * phi * cz, "j": (lam * om / r ** 2) * phi * sz * c,
            "g": (lam / n) * cz * (1.0 - c) * phi,
            "f": sz * phi * lam * ((2.0 * u / r ** 2) * (lam / n) * s + (up / r) * t),
            "dj_dt": -(n * om / r ** 2) * phi * sz * s,
            "df_dt": sz * phi * lam * ((2.0 * u / r ** 2) * c + up / r)}


@pytest.mark.parametrize("phase", ["cos", "sin"])
def test_fields_match_per_phase_closed_forms(phase):
    p = u_quadratic()
    sol = assemble_jacobi(p, sl_spectrum(p, 2, 1), 1, phase=phase)
    r = np.linspace(0.1, 1.0, 37)[:, None]
    z = np.linspace(0.0, 2 * np.pi, 11)[None, :]
    scales = sol.fields(0.3 * sol.t_star, r, z)
    for t in (0.0, 0.3 * sol.t_star, 0.5 * sol.t_star, sol.t_star, 1.7 * sol.t_star):
        fields = sol.fields(t, r, z)
        expected = per_phase_closed_forms(sol, p, t, r, z)
        assert fields.keys() == expected.keys()
        for name in expected:
            np.testing.assert_allclose(fields[name], expected[name], rtol=1e-14,
                                       atol=1e-14 * np.max(np.abs(scales[name])), err_msg=name)


def test_fields_sum_phi_once_per_call():
    p = u_quadratic()
    sol = assemble_jacobi(p, sl_spectrum(p, 2, 1), 1)
    phi, grids = sol._phi, []
    sol._phi = lambda r: grids.append(r) or phi(r)
    r, z = np.linspace(0.1, 1.0, 7)[:, None], np.linspace(0.0, np.pi, 5)[None, :]
    for calls, t in enumerate(sol.times, 1):
        sol.fields(t, r, z)
        assert len(grids) == calls
    # a second call on the same grid sums phi again, and gives the same bits
    first = sol.fields(sol.times[0], r, z)
    again = sol.fields(sol.times[0], r, z)
    assert len(grids) == len(sol.times) + 2
    assert all(np.array_equal(first[name], again[name]) for name in first)


@pytest.mark.parametrize("phase", ["cos", "sin"])
def test_fields_at_all_times_in_one_call_equal_a_call_per_time(phase):
    p = u_quadratic()
    sol = assemble_jacobi(p, sl_spectrum(p, -3, 2), 2, phase=phase)
    r = np.linspace(0.1, 1.0, 33)[:, None]
    z = np.linspace(0.0, 2 * np.pi, 9)[None, :]
    times = [0.0, *sol.times, sol.t_star, 1.7 * sol.t_star]
    together = sol.fields(np.array(times)[:, None, None], r, z)
    assert sorted(together) == ["df_dt", "dj_dt", "f", "g", "h", "j"]
    for k, t in enumerate(times):
        for name, value in sol.fields(t, r, z).items():
            assert np.array_equal(together[name][k], value), (name, t)


@dataclasses.dataclass
class _AtOneTime(JacobiSolution):
    """A Jacobi solution whose residuals are taken at the one time ``t``."""

    t: float = 0.0

    @property
    def times(self):
        return [self.t]


@pytest.mark.parametrize("phase", ["cos", "sin"])
@pytest.mark.parametrize("n", [2, -3])
def test_residuals_are_the_largest_of_each_time_alone(phase, n):
    # all times in one call, each normalized at its own time, as by a call per time
    p = u_quadratic()
    sol = assemble_jacobi(p, sl_spectrum(p, n, 2), 2, phase=phase)
    state = {f.name: getattr(sol, f.name) for f in dataclasses.fields(sol)}
    alone = [jacobi_residuals(_AtOneTime(**state, t=t)) for t in sol.times]
    assert jacobi_residuals(sol) == {key: max(rep[key] for rep in alone) for key in alone[0]}


def test_assemble_jacobi_validation():
    s = sl_spectrum(u_const(), 1, 1)
    with pytest.raises(ValidationError):
        assemble_jacobi(u_const(), s, 2)
    with pytest.raises(ValidationError):
        assemble_jacobi(u_const(), s, 1, phase="tan")


def test_readme_library_sketch_gives_its_commented_values():
    # each expression line of the sketch is evaluated and checked against its comment
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values[stmt.lineno] = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                                       namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    comments = {i: line.partition("#")[2].strip()
                for i, line in enumerate(block.splitlines(), 1) if "#" in line}
    got = {comments[i]: value for i, value in values.items() if i in comments}
    assert got["pi^2 / 15"] == pytest.approx(math.pi ** 2 / 15, rel=1e-12)
    assert got["same, via the Galerkin pressure"] == pytest.approx(math.pi ** 2 / 15, rel=1e-9)
    (row,) = got["both values again, for every mode in one pass"]
    assert (row.kbar_closed, row.kbar_oracle) == (got["pi^2 / 15"],
                                                  got["same, via the Galerkin pressure"])
    (m, t_star), *_ = got["[(1, 12.44085...), ...]"]
    assert m == 1 and math.floor(t_star * 1e5) == 1244085
    assert abs(got["0 to round-off: conjugate at t*"]) < 1e-12
    # and the last line, the residual of the Jacobi equations
    assert len(values) == 6 and values[max(values)] < 1e-6
