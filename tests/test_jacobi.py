import dataclasses
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

import swirlcurv.jacobi as jacobi
from swirlcurv import (AccuracyError, HypothesisViolationError, InvalidModeError,
                       ValidationError, assemble_jacobi, conjugate_times, jacobi_residuals,
                       lambda_over_n_study, sl_spectrum)
from swirlcurv.quadrature import quad_real

from _helpers import fixed_size_spectrum, profile_poly, u_const, u_decreasing, u_quadratic
from _oracles import SL_REFERENCES, j1_zeros


def exact_lambda(m, n):
    """For u = 1 the eigenvalues are sqrt(j_{1,m}^2 + n^2) / 2."""
    return math.sqrt(j1_zeros(m)[m - 1] ** 2 + n ** 2) / 2.0


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
    lam80, _ = jacobi._galerkin(p, 1, 20, 80)
    lam160, coef160 = jacobi._galerkin(p, 1, 20, 160)
    eigh = jacobi.eigh
    sizes = []

    def counting(a, b, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, b, *args, **kwargs)

    monkeypatch.setattr(jacobi, "eigh", counting)
    s = sl_spectrum(p, 1, 20)
    assert sizes == [40, 80, 160]
    assert np.array_equal(s.eigenvalues, lam160)
    assert np.array_equal(s.coef, coef160)
    assert np.array_equal(s.error_estimates, np.abs(lam160 - lam80) / lam160)


def test_spectrum_assembles_each_basis_size_once_per_profile(monkeypatch):
    # n enters the pencil only as A + n^2 B: u = 1, n = 1 ... 10 solves at
    # K = 16 and 32, and each assembly evaluates two Legendre Vandermondes
    p, vander, degrees = u_const(), jacobi.legvander, []

    def counting(x, deg):
        degrees.append(deg)
        return vander(x, deg)

    monkeypatch.setattr(jacobi, "legvander", counting)
    spectra = [sl_spectrum(p, n, 3) for n in range(1, 11)]
    assert sorted(degrees) == [14, 15, 30, 31]
    monkeypatch.undo()
    for n, s in enumerate(spectra, start=1):
        fresh = sl_spectrum(u_const(), n, 3)
        assert np.array_equal(s.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(s.coef, fresh.coef)


def test_pencil_cache_dies_with_its_profile():
    gc.collect()
    before = len(jacobi._PENCILS)
    p = u_quadratic()
    lambda_over_n_study(p, 1, [4, 8, 16])
    assert len(jacobi._PENCILS) == before + 1
    del p
    gc.collect()
    assert len(jacobi._PENCILS) == before


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
    for n in range(1, 11):
        s = sl_spectrum(u_const(), n, 5)
        np.testing.assert_allclose(s.eigenvalues, [exact_lambda(m, n) for m in range(1, 6)],
                                   rtol=1e-11, atol=0)


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
        assert jacobi_residuals(p, assemble_jacobi(p, s, m)).max_residual() <= 1e-8


def test_spectrum_validation():
    with pytest.raises(InvalidModeError):
        sl_spectrum(u_const(), 0, 1)
    with pytest.raises(ValidationError):
        sl_spectrum(u_const(), 1, 0)


def test_hypothesis_violation_refused():
    # u = 2 - r^2 has u*omega = 0 at r = 1; u = r has u*omega = 0 on the axis
    with pytest.raises(HypothesisViolationError):
        sl_spectrum(u_decreasing(), 1, 1)
    with pytest.raises(HypothesisViolationError):
        sl_spectrum(profile_poly([0.0, 1.0]), 1, 1)


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
    pairs = lambda_over_n_study(u_const(), 1, [4, 8, 16, 32, 64])
    ratios = dict(pairs)
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
    scale = np.max(np.abs(sol.g(0.25 * sol.t_star, r, z)))
    for t in (0.0, sol.t_star):
        assert np.max(np.abs(sol.g(t, r, z))) < 1e-10 * scale
        assert np.max(np.abs(sol.f(t, r, z))) < 1e-10 * scale


def test_jacobi_f_amplitude_peaks_at_half_period():
    s = sl_spectrum(u_const(), 1, 1)
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
    s = sl_spectrum(p, n, m)
    sol = assemble_jacobi(p, s, m)
    rep = jacobi_residuals(p, sol)
    assert rep.max_residual() < 1e-6


def test_residuals_sample_one_period_in_z(monkeypatch):
    # every field is one harmonic cos/sin(n z): 16 points on one period serve any n
    sizes = []
    fft_dz = jacobi._fft_dz
    monkeypatch.setattr(jacobi, "_fft_dz",
                        lambda field, *args, **kw: sizes.append(field.shape[-1])
                        or fft_dz(field, *args, **kw))
    p = u_const()
    rep = jacobi_residuals(p, assemble_jacobi(p, sl_spectrum(p, 500, 1), 1))
    assert sizes and set(sizes) == {16}
    assert rep.max_residual() < 1e-10


def test_residuals_fall_with_basis_size():
    # spectral convergence: K = 8 -> 16 cuts the residual by far more than the
    # factor 4 a second-order scheme gains per doubling
    p = u_quadratic()
    res = {}
    for K in (8, 16):
        rep = jacobi_residuals(p, assemble_jacobi(p, fixed_size_spectrum(p, 1, K), 1))
        res[K] = max(rep.stream_transport, rep.second_order)
    assert res[16] < res[8] / 100.0


def test_residual_detects_wrong_eigenvalue():
    p = u_const()
    s = sl_spectrum(p, 1, 1)
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
    s = sl_spectrum(p, 2, 1)
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
    sol = assemble_jacobi(p, sl_spectrum(p, 2, 1), 1, phase=phase)
    r = np.linspace(0.1, 1.0, 37)[:, None]
    z = np.linspace(0.0, 2 * np.pi, 11)[None, :]
    for t in (0.0, 0.3 * sol.t_star, 0.5 * sol.t_star, sol.t_star, 1.7 * sol.t_star):
        for name, expected in per_phase_closed_forms(sol, p, t, r, z).items():
            scale = np.max(np.abs(getattr(sol, name)(0.3 * sol.t_star, r, z)))
            np.testing.assert_allclose(getattr(sol, name)(t, r, z), expected,
                                       rtol=1e-14, atol=1e-14 * scale, err_msg=name)


def test_fields_evaluate_phi_once_per_radial_grid():
    p = u_quadratic()
    sol = assemble_jacobi(p, sl_spectrum(p, 2, 1), 1)
    phi, grids = sol._phi, []
    sol._phi = lambda r: grids.append(r) or phi(r)
    r, z = np.linspace(0.1, 1.0, 7)[:, None], np.linspace(0.0, np.pi, 5)[None, :]
    first = {name: getattr(sol, name)(sol.times[0], r, z) for name in ("h", "j", "g", "f")}
    for t in sol.times:
        for name in ("h", "j", "g", "f", "dj_dt", "dg_dt", "df_dt"):
            getattr(sol, name)(t, r.copy(), z)
    assert len(grids) == 1
    sol.h(0.0, r[::2], z)
    assert len(grids) == 2
    for name, values in first.items():
        assert np.array_equal(getattr(sol, name)(sol.times[0], r, z), values)
    assert len(grids) == 3


def test_assemble_jacobi_validation():
    s = sl_spectrum(u_const(), 1, 1)
    with pytest.raises(ValidationError):
        assemble_jacobi(u_const(), s, 2)
    with pytest.raises(ValidationError):
        assemble_jacobi(u_const(), s, 1, phase="tan")
