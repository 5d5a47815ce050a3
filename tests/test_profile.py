import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import swirlcurv.profile as profile
from swirlcurv import (ExpressionFunction, RadialProfile, TableFunction, classify_criteria,
                       conjugate_times, sl_spectrum)

from _helpers import profile_poly, u_const, u_decreasing, u_quadratic


def test_constant_profile_values():
    p = u_const()
    assert p.u(0.5) == 1.0 and p.u.derivative(0.5) == 0.0
    assert p.omega(0.3) == pytest.approx(2.0)
    assert p.eta(0.3) == pytest.approx(1.0)


def test_rigid_rotation_values():
    # u = r: omega = 3r, eta = 3r^2
    p = profile_poly([0.0, 1.0])
    assert p.omega(0.4) == pytest.approx(1.2)
    assert p.eta(0.4) == pytest.approx(0.48)


def test_quadratic_profile_eta():
    # u = 1 + r^2: eta = (1 + r^2)(1 + 5 r^2)
    p = u_quadratic()
    r = np.linspace(0, 1, 9)
    np.testing.assert_allclose(p.eta(r), (1 + r ** 2) * (1 + 5 * r ** 2))


def test_classify_positive_profiles():
    for p in (u_const(), u_quadratic()):
        rep = classify_criteria(p)
        assert rep.eta_strictly_positive
        assert rep.eta_nonnegative
        assert rep.u_omega_positive
        assert rep.witness_points == []
        assert rep.eta_min > 0


def test_classify_decreasing_profile_fails_with_witness():
    # u = 2 - r^2: eta = (2 - r^2)(2 - 5 r^2) crosses zero at r = sqrt(2/5)
    rep = classify_criteria(u_decreasing())
    assert not rep.eta_strictly_positive
    assert not rep.eta_nonnegative
    assert rep.eta_min < 0
    eta_witnesses = [w for w in rep.witness_points if w["criterion"] == "eta"]
    assert eta_witnesses
    root = math.sqrt(2.0 / 5.0)
    assert any(abs(w["r"] - root) < 1e-6 for w in eta_witnesses)
    # within the tolerance once bisected to 1e-12 in r, so bisected no further
    assert eta_witnesses[1] == {"criterion": "eta", "r": 0.6324555320333713,
                                "value": 3.0815350271495845e-12}
    # u*omega = (2 - r^2)(4 - 4 r^2) stays positive on [0, 1)
    # but vanishes at r = 1, so strict positivity fails there too
    assert not rep.u_omega_positive


def test_rigid_rotation_boundary_case():
    # u = r: eta = 3 r^2 and u*omega = 3 r^2 vanish at the axis -> not strict
    rep = classify_criteria(profile_poly([0.0, 1.0]))
    assert not rep.eta_strictly_positive
    assert rep.eta_nonnegative
    assert not rep.u_omega_positive
    assert any(abs(w["r"]) < 1e-12 for w in rep.witness_points)


@pytest.mark.parametrize("text", ["cos(30*r) + 0.5", "sin(20*r)"])
def test_bisected_roots_are_within_the_tolerance(text):
    # steep criteria: bisected to 1e-12 in r only, their roots kept values of
    # up to 12 times the tolerance
    report = classify_criteria(RadialProfile(ExpressionFunction(text)))
    for name in ("eta", "u_omega"):
        roots = [w for w in report.witness_points if w["criterion"] == name][1:]
        assert roots and all(abs(w["value"]) <= report.tolerance for w in roots)


@pytest.mark.parametrize("coeffs", [[0.0, 1.0], [2.0, 0.0, -1.0]])
def test_witnesses_list_each_point_once(coeffs):
    # u = r: eta and u*omega have their minimum at an exact zero on the axis;
    # u = 2 - r^2: u*omega has its minimum at an exact zero at r = 1
    report = classify_criteria(profile_poly(coeffs))
    points = [(w["criterion"], w["r"]) for w in report.witness_points]
    assert len(points) == len(set(points))
    assert ("u_omega", 0.0 if coeffs[0] == 0.0 else 1.0) in points


def _scalar_scan(fn, grid, vals, tol):
    """Reference for profile._scan: one scalar call per grid point, in place of
    the array values ``vals``."""
    vals = np.array([float(fn(r)) for r in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(profile._bisect_root(fn, grid[i], grid[i + 1], vals[i], tol))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    return (np.concatenate([grid, roots]),
            np.concatenate([vals, [float(fn(r)) for r in roots]]))


_TABLE_R = np.linspace(0.0, 1.0, 17)


@pytest.mark.parametrize("make", [
    u_quadratic, u_decreasing, lambda: profile_poly([0.0, 1.0]),
    lambda: RadialProfile(ExpressionFunction("1 + 0.3*sin(3*r)")),
    lambda: RadialProfile(ExpressionFunction("exp(-r^2) + sqrt(1 + r)")),
    lambda: RadialProfile(ExpressionFunction("log(2 + r) - r^3")),
    lambda: RadialProfile(ExpressionFunction("sqrt(1 + r) - r^3*exp(r)")),
    # interior minimum of u*omega: a scalar Python ** would move it by an ulp
    lambda: RadialProfile(ExpressionFunction("(1.2 - r)^3")),
    lambda: RadialProfile(TableFunction(_TABLE_R, 2.0 - _TABLE_R ** 2)),
    lambda: RadialProfile(ExpressionFunction("1")),
    lambda: RadialProfile(ExpressionFunction("0")),  # every grid point is a root
])
def test_array_scan_matches_scalar_scan(monkeypatch, make):
    p = make()
    report = classify_criteria(p)
    monkeypatch.setattr(profile, "_scan", _scalar_scan)
    assert report == classify_criteria(p)


def _flags(report):
    return report.eta_strictly_positive, report.eta_nonnegative, report.u_omega_positive


# u = 1 + r^2 passes both criteria, 2 - r^2 only u omega > 0, u = r (a zero at the
# axis) and 1 - 2r (a zero inside) neither
@settings(max_examples=30, deadline=None)
@example([1.0, 0.0, 1.0], -7.0, False)   # under a floor of 1e-12 (1 + max |eta|) both failed
@example([2.0, 0.0, -1.0], 100.0, False)
@given(st.sampled_from([[1.0, 0.0, 1.0], [2.0, 0.0, -1.0], [0.0, 1.0], [1.0, -2.0]]),
       st.floats(min_value=-100.0, max_value=100.0), st.booleans())
def test_criteria_are_scale_free(coeffs, exponent, negative):
    # eta and u omega scale by a^2 and lambda by 1 / |a|, so the flags and |a| t* stay
    a = (-1.0 if negative else 1.0) * 10.0 ** exponent
    p, p_scaled = profile_poly(coeffs), profile_poly([a * c for c in coeffs])
    base, scaled = classify_criteria(p), classify_criteria(p_scaled)
    assert _flags(scaled) == _flags(base)
    # eta = 2 u omega - 3 u^2
    assert not (scaled.eta_strictly_positive and not scaled.u_omega_positive)
    # the spectrum is solved whatever the sign of u omega
    t_star = [abs(a) * t for _, t in conjugate_times(sl_spectrum(p_scaled, 1, 2))]
    expected = [t for _, t in conjugate_times(sl_spectrum(p, 1, 2))]
    np.testing.assert_allclose(t_star, expected, rtol=1e-12, atol=0)


@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=5),
       st.floats(min_value=0.01, max_value=0.99))
def test_eta_matches_finite_difference_of_r_u_squared(coeffs, r):
    p = profile_poly(coeffs)
    h = 1e-6
    fd = ((r + h) * p.u(r + h) ** 2 - (r - h) * p.u(r - h) ** 2) / (2 * h)
    assert p.eta(r) == pytest.approx(fd, rel=1e-6, abs=1e-7)


@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=5),
       st.floats(min_value=0.01, max_value=0.99))
def test_vorticity_matches_finite_difference_of_r2_u(coeffs, r):
    # omega = (1/r) d/dr (r^2 u)
    p = profile_poly(coeffs)
    h = 1e-6
    fd = ((r + h) ** 2 * p.u(r + h) - (r - h) ** 2 * p.u(r - h)) / (2 * h)
    assert p.omega(r) == pytest.approx(fd / r, rel=1e-6, abs=1e-7)
