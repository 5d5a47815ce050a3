import math

import pytest
from hypothesis import given, strategies as st

from swirlcurv import RegularityError, cross_inner_product, mode_energy, swirl_energy

from _helpers import mode_poly, scaled_mode, standard_mode, u_const, u_quadratic

PI2 = math.pi ** 2


def test_validate_flags_each_invariant():
    standard_mode(3).validate()
    with pytest.raises(RegularityError):
        mode_poly(1, [0.5, 0.0, 1.0]).validate()       # g(0) != 0
    with pytest.raises(RegularityError):
        mode_poly(1, [0, 0, 1, -1], f_re=[1.0]).validate()  # f(0) != 0
    with pytest.raises(RegularityError):
        mode_poly(2, [0, 0, 1]).validate()             # g(1) != 0 with n != 0
    # g'(0) != 0 is left to mode_energy, the one computation it breaks
    mode_poly(1, [0, 1, -1]).validate()
    # n = 0 may keep g(1) != 0
    mode_poly(0, [0, 0, 1]).validate()


def test_swirl_energy_closed_forms():
    assert swirl_energy(u_const()) == pytest.approx(PI2, rel=1e-12)
    # u = 1 + r^2: 4 pi^2 (1/4 + 1/3 + 1/8) = 17 pi^2 / 6
    assert swirl_energy(u_quadratic()) == pytest.approx(17 * PI2 / 6, rel=1e-12)


def test_mode_energy_frozen_values():
    # g = r^2(1-r), f = 0, n = 1: 4 pi^2 (1/60 + 1/4) = 16 pi^2 / 15
    m = mode_poly(1, [0, 0, 1, -1])
    assert mode_energy(m) == pytest.approx(16 * PI2 / 15, rel=1e-12)
    # adding f = r(1-r) contributes 4 pi^2 int r^3 f^2 = 4 pi^2 / 168
    m2 = standard_mode(1)
    assert mode_energy(m2) == pytest.approx(4 * PI2 * (4.0 / 15 + 1.0 / 168), rel=1e-12)
    # the |g| terms scale with n^2
    m5 = mode_poly(5, [0, 0, 1, -1])
    assert mode_energy(m5) == pytest.approx(4 * PI2 * (25.0 / 60 + 0.25), rel=1e-12)


def test_mode_energy_divergent_mode_refused():
    with pytest.raises(RegularityError):
        mode_energy(mode_poly(1, [0.0, 1.0, -1.0]))


@given(st.floats(min_value=0.1, max_value=10.0))
def test_mode_energy_quadratic_scaling(c):
    m = standard_mode(2)
    assert mode_energy(scaled_mode(m, c)) == pytest.approx(c * c * mode_energy(m), rel=1e-10)


def test_cross_inner_product_vanishes_unless_n_zero():
    p = u_quadratic()
    assert cross_inner_product(p, standard_mode(3)) == 0.0
    m0 = mode_poly(0, [0.0], f_re=[0.0, 1.0])  # f = r, n = 0
    # 4 pi^2 int r^4 (1 + r^2) dr = 4 pi^2 (1/5 + 1/7)
    assert cross_inner_product(p, m0) == pytest.approx(4 * PI2 * (1 / 5 + 1 / 7), rel=1e-12)
