import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import swirlcurv.jacobi as jacobi
from swirlcurv import (HypothesisViolationError, InvalidModeError, ValidationError,
                       assemble_jacobi, conjugate_times, jacobi_residuals,
                       lambda_over_n_study, sl_spectrum)

from _helpers import profile_poly, u_const, u_decreasing, u_quadratic
from _oracles import j1_zeros


def exact_lambda(m, n):
    """For u = 1 the eigenvalues are sqrt(j_{1,m}^2 + n^2) / 2."""
    return math.sqrt(j1_zeros(m)[m - 1] ** 2 + n ** 2) / 2.0


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

def test_constant_profile_spectrum_matches_bessel_zeros():
    s = sl_spectrum(u_const(), 1, 3, grid=1024)
    for m in (1, 2, 3):
        assert s.eigenvalues[m - 1] == pytest.approx(exact_lambda(m, 1), abs=1e-8)
    assert np.all(np.diff(s.eigenvalues) > 0)
    assert np.all(s.error_estimates < 1e-6)


def test_each_grid_level_solved_once(monkeypatch):
    # u = 1, n = 1, m_max = 2 misses tol = 1e-6 at grids 256 and 512, so the
    # grid doubles twice and the accepted pair is (1024, 2048)
    coarse = jacobi._solve_grid(u_const(), 1, 2, 1024).lam
    fine = jacobi._solve_grid(u_const(), 1, 2, 2048).lam
    eigh = jacobi.eigh_tridiagonal
    sizes = []

    def counting(d, e, *args, **kwargs):
        sizes.append(len(d))
        return eigh(d, e, *args, **kwargs)

    monkeypatch.setattr(jacobi, "eigh_tridiagonal", counting)
    s = sl_spectrum(u_const(), 1, 2, grid=256, tol=1e-6)
    assert sizes == [255, 511, 1023, 2047]
    assert s.grid == 1024
    assert np.array_equal(s.eigenvalues, (4.0 * fine - coarse) / 3.0)


def _eager_solve(p, n, m_max, N):
    """Eigenpairs of one grid level from one eigh_tridiagonal call with vectors,
    normalized, sign-fixed and checked by the discrete Rayleigh identity."""
    h = 1.0 / N
    ri = np.linspace(0.0, 1.0, N + 1)[1:-1]
    w = 2.0 * p.u(ri) * p.omega(ri) / ri
    a = 1.0 / ((np.arange(N) + 0.5) * h)
    main = -(a[1:] + a[:-1]) / h ** 2 - n * n / ri
    d = np.sqrt(w)
    K = N - 1
    vals, vecs = eigh_tridiagonal(main / w, a[1:-1] / h ** 2 / (d[:-1] * d[1:]),
                                  select="i", select_range=(K - m_max, K - 1))
    cvals = vals[::-1]
    phi = vecs[:, ::-1] / d[:, None] / np.sqrt(h)
    phi *= np.sign(phi[np.argmax(np.abs(phi), axis=0), np.arange(m_max)])
    ray = []
    for k in range(m_max):
        ph = phi[:, k]
        dphi = np.diff(np.concatenate([[0.0], ph, [0.0]]))
        rhs = -(np.sum(a * dphi ** 2 / h ** 2) + np.sum(n * n * ph ** 2 / ri)) * h
        lhs = cvals[k] * np.sum(w * ph ** 2) * h
        ray.append(abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return np.sqrt(-cvals), phi.T, ray


@pytest.mark.parametrize("profile_fn,n,m_max", [(u_const, 1, 3), (u_quadratic, 7, 4)])
def test_lazy_eigenfunctions_equal_eager_solve(profile_fn, n, m_max):
    p = profile_fn()
    s = sl_spectrum(p, n, m_max, grid=1024)
    N = 2 * s.grid
    lam, phi, ray = _eager_solve(p, n, m_max, N)
    assert np.array_equal(jacobi._solve_grid(p, n, m_max, N).lam, lam)
    assert "phi" not in vars(s)  # nothing computed before it is read
    assert np.array_equal(s.r, np.linspace(0.0, 1.0, N + 1))
    assert np.array_equal(s.phi[:, 1:-1], phi)
    assert np.all(s.phi[:, [0, -1]] == 0.0)
    assert [s.rayleigh_residual(m) for m in range(1, m_max + 1)] == ray


def test_spectrum_other_wavenumbers():
    for n in (2, 5):
        s = sl_spectrum(u_const(), n, 2, grid=1024)
        for m in (1, 2):
            assert s.eigenvalues[m - 1] == pytest.approx(exact_lambda(m, n), abs=1e-7)


def test_negative_n_same_spectrum():
    s_pos = sl_spectrum(u_const(), 3, 2, grid=512)
    s_neg = sl_spectrum(u_const(), -3, 2, grid=512)
    np.testing.assert_allclose(s_pos.eigenvalues, s_neg.eigenvalues, rtol=1e-12)


def test_eigenfunction_oscillation_counts():
    s = sl_spectrum(u_quadratic(), 2, 4, grid=1024)
    for m in (1, 2, 3, 4):
        assert s.oscillation_count(m) == m - 1


def test_eigenfunction_boundary_values_and_rayleigh():
    s = sl_spectrum(u_quadratic(), 1, 3, grid=1024)
    assert s.phi[0, 0] == 0.0 and s.phi[0, -1] == 0.0
    for m in (1, 2, 3):
        assert s.rayleigh_residual(m) < 1e-8


def test_spectrum_validation():
    with pytest.raises(InvalidModeError):
        sl_spectrum(u_const(), 0, 1)
    with pytest.raises(ValidationError):
        sl_spectrum(u_const(), 1, 0)
    with pytest.raises(ValidationError):
        sl_spectrum(u_const(), 1, 1, grid=64)


def test_hypothesis_violation_refused():
    # u = 2 - r^2 has u*omega = 0 at r = 1; u = r has u*omega = 0 on the axis
    with pytest.raises(HypothesisViolationError):
        sl_spectrum(u_decreasing(), 1, 1)
    with pytest.raises(HypothesisViolationError):
        sl_spectrum(profile_poly([0.0, 1.0]), 1, 1)


def test_conjugate_times_values():
    s = sl_spectrum(u_const(), 1, 1, grid=1024)
    (m, t_star), = conjugate_times(s)
    assert m == 1
    assert t_star == pytest.approx(2 * math.pi * exact_lambda(1, 1), abs=1e-7)
    s2 = sl_spectrum(u_const(), 2, 1, grid=1024)
    (_, t2), = conjugate_times(s2)
    assert t2 == pytest.approx(math.pi * exact_lambda(1, 2), abs=1e-7)
    assert t2 < t_star  # higher wavenumbers conjugate earlier


def test_lambda_over_n_limit_one_half():
    pairs = lambda_over_n_study(u_const(), 1, [4, 8, 16, 32, 64], grid=1024)
    ratios = dict(pairs)
    assert abs(ratios[64] - 0.5) < 1e-3
    diffs = [abs(ratios[b] - ratios[a]) for a, b in ((4, 8), (8, 16), (16, 32), (32, 64))]
    assert all(d2 < d1 / 2 for d1, d2 in zip(diffs, diffs[1:]))


# ---------------------------------------------------------------------------
# Jacobi fields and residuals
# ---------------------------------------------------------------------------

def test_jacobi_field_vanishes_at_zero_and_t_star():
    s = sl_spectrum(u_quadratic(), 2, 2, grid=1024)
    sol = assemble_jacobi(u_quadratic(), s, 1)
    r = np.linspace(0.1, 0.95, 40)[:, None]
    z = np.linspace(0.0, 2 * np.pi, 9)[None, :]
    scale = np.max(np.abs(sol.g(0.25 * sol.t_star, r, z)))
    for t in (0.0, sol.t_star):
        assert np.max(np.abs(sol.g(t, r, z))) < 1e-10 * scale
        assert np.max(np.abs(sol.f(t, r, z))) < 1e-10 * scale


def test_jacobi_f_amplitude_peaks_at_half_period():
    s = sl_spectrum(u_const(), 1, 1, grid=1024)
    sol = assemble_jacobi(u_const(), s, 1)
    r = np.linspace(0.2, 0.9, 20)[:, None]
    z = np.array([[np.pi / 2]])
    f_half = np.max(np.abs(sol.f(0.5 * sol.t_star, r, z)))
    f_quarter = np.max(np.abs(sol.f(0.25 * sol.t_star, r, z)))
    assert f_half == pytest.approx(2.0 * f_quarter, rel=1e-9)


@pytest.mark.parametrize("profile_fn,n,m", [(u_const, 1, 1), (u_const, 3, 2),
                                            (u_quadratic, 2, 1)])
def test_residuals_small(profile_fn, n, m):
    p = profile_fn()
    s = sl_spectrum(p, n, m, grid=4096)
    sol = assemble_jacobi(p, s, m)
    rep = jacobi_residuals(p, sol)
    assert rep.max_residual() < 1e-6


def test_residuals_decay_second_order():
    p = u_quadratic()
    res = {}
    for grid in (256, 512):
        # tol disabled so the requested grid is what actually gets solved
        s = sl_spectrum(p, 1, 1, grid=grid, tol=1e9)
        sol = assemble_jacobi(p, s, 1)
        rep = jacobi_residuals(p, sol)
        res[grid] = max(rep.stream_transport, rep.second_order)
    assert res[512] < res[256] / 2.5


def test_residual_detects_wrong_eigenvalue():
    p = u_const()
    s = sl_spectrum(p, 1, 1, grid=1024)
    good = assemble_jacobi(p, s, 1)
    # a wrong eigenvalue in the closed forms, the eigenfunction left alone
    lam = float(s.eigenvalues[0]) * 1.01
    bad = dataclasses.replace(good, lam=lam, t_star=float(2.0 * np.pi * lam / abs(s.n)))
    rep_good = jacobi_residuals(p, good)
    rep_bad = jacobi_residuals(p, bad)
    assert rep_bad.max_residual() > 100 * rep_good.max_residual()
    assert rep_bad.max_residual() > 1e-3


def test_sine_branch_residuals_and_secular_term():
    p = u_quadratic()
    s = sl_spectrum(p, 2, 1, grid=4096)
    sol = assemble_jacobi(p, s, 1, phase="sin")
    rep = jacobi_residuals(p, sol)
    assert rep.max_residual() < 1e-6
    # the secular u'(r) t term keeps f from re-vanishing at t*
    r = np.linspace(0.2, 0.9, 20)[:, None]
    z = np.array([[np.pi / 4]])
    scale = np.max(np.abs(sol.f(0.25 * sol.t_star, r, z)))
    assert np.max(np.abs(sol.f(sol.t_star, r, z))) > 0.1 * scale


def per_phase_closed_forms(sol, p, t, r, z):
    """The seven fields written out separately for each phase, as references."""
    lam, n, th = sol.lam, sol.n, sol.n * t / sol.lam
    phi, u, up, om = sol._phi(r), p.u(r), p.u.derivative(r), p.omega(r)
    cz, sz, c, s = np.cos(n * z), np.sin(n * z), np.cos(th), np.sin(th)
    if sol.phase == "cos":
        return {"h": c * phi * cz, "j": -(lam * om / r ** 2) * phi * sz * s,
                "g": (lam / n) * cz * s * phi,
                "f": (2.0 * lam ** 2 * u / (n * r ** 2)) * sz * (c - 1.0) * phi,
                "dj_dt": -(n * om / r ** 2) * phi * sz * c, "dg_dt": c * phi * cz,
                "df_dt": -(2.0 * lam * u / r ** 2) * sz * s * phi}
    return {"h": s * phi * cz, "j": (lam * om / r ** 2) * phi * sz * c,
            "g": (lam / n) * cz * (1.0 - c) * phi,
            "f": sz * phi * lam * ((2.0 * u / r ** 2) * (lam / n) * s + (up / r) * t),
            "dj_dt": -(n * om / r ** 2) * phi * sz * s, "dg_dt": s * phi * cz,
            "df_dt": sz * phi * lam * ((2.0 * u / r ** 2) * c + up / r)}


@pytest.mark.parametrize("phase", ["cos", "sin"])
def test_fields_match_per_phase_closed_forms(phase):
    p = u_quadratic()
    sol = assemble_jacobi(p, sl_spectrum(p, 2, 1, grid=1024), 1, phase=phase)
    r = np.linspace(0.1, 1.0, 37)[:, None]
    z = np.linspace(0.0, 2 * np.pi, 11)[None, :]
    for t in (0.0, 0.3 * sol.t_star, 0.5 * sol.t_star, sol.t_star, 1.7 * sol.t_star):
        for name, expected in per_phase_closed_forms(sol, p, t, r, z).items():
            scale = np.max(np.abs(getattr(sol, name)(0.3 * sol.t_star, r, z)))
            np.testing.assert_allclose(getattr(sol, name)(t, r, z), expected,
                                       rtol=1e-14, atol=1e-14 * scale, err_msg=name)


def test_assemble_jacobi_validation():
    s = sl_spectrum(u_const(), 1, 1, grid=512)
    with pytest.raises(ValidationError):
        assemble_jacobi(u_const(), s, 2)
    with pytest.raises(ValidationError):
        assemble_jacobi(u_const(), s, 1, phase="tan")
