"""Identities of the package's scaled Bessel functions (``swirlcurv.special``):
power series, the Wronskian, the modified Bessel equation and large arguments.
The package computes only I0 and I1; scipy's ``k0e`` and ``k1e`` are their
partners in the identities that pair I with K."""

import math

import numpy as np
import pytest
from scipy import special as scipy_special
from scipy.special import k0e, k1e

from swirlcurv import special as sp

from _oracles import five_point_diff, i0_series, i1_series


def test_i_matches_power_series():
    # xi = I0 and xi' / N = I1 enter as i0e, i1e times e^{x}
    for x in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 8.0):
        assert float(sp.i0e(x)) * math.exp(x) == pytest.approx(i0_series(x), rel=1e-13)
        assert float(sp.i1e(x)) * math.exp(x) == \
            pytest.approx(i1_series(x), rel=1e-13, abs=1e-300)


def test_scaled_values_consistent():
    # scaled values times e^{+-x} against scipy's unscaled functions
    n = 25
    for r in (0.02, 0.12, 0.5, 1.0):
        x = n * r
        assert float(sp.i0e(x)) * math.exp(x) == pytest.approx(scipy_special.i0(x), rel=1e-12)
        assert float(n * sp.i1e(x)) * math.exp(x) == \
            pytest.approx(n * scipy_special.i1(x), rel=1e-12)


def test_wronskian_identity_wide_range():
    # I0(x) K1(x) + I1(x) K0(x) = 1/x, checked in scaled arithmetic
    x = np.linspace(0.1, 50.0, 500)
    w = sp.i0e(x) * k1e(x) + sp.i1e(x) * k0e(x)
    np.testing.assert_allclose(w, 1.0 / x, rtol=1e-12)


def test_ratio_derivative_identity():
    # d/dx (K1/I1) = -1 / (x I1(x)^2); the sign here is the Wronskian's
    def ratio(x):
        return k1e(x) / sp.i1e(x) * math.exp(-2.0 * x)

    for x in np.linspace(0.5, 20.0, 40):
        lhs = five_point_diff(ratio, x, 1e-4 * max(x, 1.0))
        rhs = -math.exp(-2.0 * x) / (x * sp.i1e(x) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-8)


# ---------------------------------------------------------------------------
# The solutions xi = I0(N r) and K0(N r) of (1/r)(r y')' - N^2 y = 0
# ---------------------------------------------------------------------------

def xi_scaled(n, r):
    """xi_n(r) e^{-N r} and xi_n'(r) e^{-N r}, N = |n|, from the scaled I0, I1."""
    r = np.asarray(r, dtype=float)
    return sp.i0e(abs(n) * r), abs(n) * sp.i1e(abs(n) * r)


def k0_scaled(n, r):
    """K0(N r) e^{+N r} and its r-derivative times e^{+N r}, from scipy's scaled K0, K1."""
    r = np.asarray(r, dtype=float)
    return k0e(abs(n) * r), -abs(n) * k1e(abs(n) * r)


def wronskian(n, r):
    """xi K0' - K0 xi' in scaled space (the e^{+-N r} factors cancel)."""
    xi, xi_prime = xi_scaled(n, r)
    k, k_prime = k0_scaled(n, r)
    return xi * k_prime - k * xi_prime


def test_xi_is_i0():
    xi, xi_prime = xi_scaled(2, 0.5)
    assert float(xi) * math.e == pytest.approx(i0_series(1.0), rel=1e-13)
    assert float(xi_prime) * math.e == pytest.approx(2.0 * i1_series(1.0), rel=1e-13)


def test_wronskian_is_minus_one_over_r():
    for n in (1, 2, 7, 50, 1000):
        r = np.linspace(0.05, 1.0, 200)
        np.testing.assert_allclose(wronskian(n, r), -1.0 / r, rtol=1e-11)


def test_wronskian_spot_value():
    assert float(wronskian(1, 0.5)) == pytest.approx(-2.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_both_solutions_satisfy_the_ode(n):
    # y'' + y'/r - n^2 y = 0 via high-order finite differences
    h = 1e-3
    r = np.linspace(0.2, 0.9, 33)
    plain = (lambda x: xi_scaled(n, x)[0] * np.exp(n * x),
             lambda x: k0_scaled(n, x)[0] * np.exp(-n * x))
    for fn in plain:
        ym2, ym1, y, yp1, yp2 = (fn(r + k * h) for k in range(-2, 3))
        d1 = (ym2 - 8 * ym1 + 8 * yp1 - yp2) / (12 * h)
        d2 = (-ym2 + 16 * ym1 - 30 * y + 16 * yp1 - yp2) / (12 * h * h)
        resid = d2 + d1 / r - n * n * y
        assert np.max(np.abs(resid) / (n * n * np.abs(y))) < 1e-7


def test_no_overflow_for_large_mode_numbers():
    n = 10000
    r = np.linspace(0.01, 1.0, 50)
    xi, xi_prime = xi_scaled(n, r)
    k, k_prime = k0_scaled(n, r)
    for arr in (xi, k, xi_prime / n, k_prime / n):
        assert np.all(np.isfinite(arr)) and np.all(arr != 0.0)
