import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy import interpolate

from swirlcurv import (ComplexRadialFunction, DomainError, ExpressionFunction,
                       PolynomialFunction, TableFunction, pressure_bvp_solve, zero)
from swirlcurv.radial import CubicSpline, bspline_basis

from _helpers import standard_mode, u_quadratic


def test_polynomial_values_and_derivatives():
    p = PolynomialFunction([2.0, 0.0, -1.0])  # 2 - r^2
    assert p(0.5) == pytest.approx(1.75)
    assert p.derivative(0.5) == pytest.approx(-1.0)
    r = np.linspace(0, 1, 7)
    np.testing.assert_allclose(p(r), 2.0 - r ** 2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=12))
def test_polynomial_derivative_is_polyders_bit_for_bit(coeffs):
    # the derivative coefficients are the products j c_j that npoly.polyder forms
    r = np.linspace(0.0, 1.0, 9)
    expected = npoly.polyval(r, npoly.polyder(coeffs))
    assert PolynomialFunction(coeffs).derivative(r).tobytes() == expected.tobytes()


def test_polynomial_constant_and_zero():
    assert PolynomialFunction([3.0])(0.7) == 3.0
    assert PolynomialFunction([3.0]).derivative(0.7) == 0.0
    assert zero()(0.2) == 0.0


def test_expression_function_matches_polynomial():
    e = ExpressionFunction("2 - r^2")
    p = PolynomialFunction([2.0, 0.0, -1.0])
    r = np.linspace(0, 1, 17)
    np.testing.assert_allclose(e(r), p(r))
    np.testing.assert_allclose(e.derivative(r), p.derivative(r))


def test_domain_enforced():
    p = PolynomialFunction([1.0, 1.0])
    with pytest.raises(DomainError):
        p(1.5)
    with pytest.raises(DomainError):
        p(-0.1)
    with pytest.raises(DomainError):
        p(np.array([0.5, 2.0]))
    # round-off slack just outside the interval is tolerated
    assert p(1.0 + 1e-13) == pytest.approx(2.0)


@pytest.mark.parametrize("r,bad", [(1.5, 1.5), (-0.1, -0.1), (np.float64(2.0), 2.0),
                                   ([0.5, 2.0, -3.0], 2.0), ([[0.2, np.nan], [-3.0, 0.4]], -3.0),
                                   ([np.nan, 1.0 + 1e-9], 1.0 + 1e-9)])
def test_domain_error_names_the_first_bad_radius(r, bad):
    for fn in (PolynomialFunction([1.0, 1.0]), ExpressionFunction("1 + r"),
               TableFunction(np.linspace(0.0, 1.0, 5), np.linspace(1.0, 2.0, 5))):
        with pytest.raises(DomainError, match=rf"^radius {re.escape(str(bad))} outside \[0, 1\]$"):
            fn(r)


def test_domain_check_keeps_nan_clips_slack_and_scalars():
    p = PolynomialFunction([1.0, 1.0])
    assert np.isnan(p(np.nan)) and isinstance(p(np.nan), float)
    out = p(np.array([np.nan, 0.5, -1e-13, 1.0 + 1e-13]))
    assert np.isnan(out[0]) and out[1:].tolist() == [1.5, 1.0, 2.0]
    assert p(-1e-13) == 1.0 and isinstance(p(-1e-13), float)
    assert p(np.array([])).shape == (0,)
    r = np.linspace(0.0, 1.0, 9).reshape(3, 3)
    np.testing.assert_array_equal(p(r), 1.0 + r)


def test_table_function_interpolates():
    r = np.linspace(0.0, 1.0, 21)
    t = TableFunction(r, 2.0 - r ** 2)
    assert t(0.5) == pytest.approx(1.75, abs=1e-4)
    assert t.derivative(0.5) == pytest.approx(-1.0, abs=1e-3)
    assert isinstance(t(0.5), float)
    out = t(np.array([0.2, 0.4]))
    assert out.shape == (2,)


def test_table_function_validation():
    with pytest.raises(ValueError):
        TableFunction([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])  # too few nodes
    with pytest.raises(ValueError):
        TableFunction([0.1, 0.4, 0.7, 0.9], [1.0] * 4)  # does not span [0,1]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("bc", ["natural"])
def test_spline_matches_scipy(seed, bc):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.01, 1.0, rng.integers(2, 40)))  # non-uniform knots
    y = rng.standard_normal(x.size)
    t = np.concatenate([x, rng.uniform(x[0], x[-1], 500)])
    ours, ref = CubicSpline(x, y), interpolate.CubicSpline(x, y, bc_type=bc)
    for nu in (0, 1):
        expected = ref(t, nu)
        assert np.max(np.abs(ours(t, nu) - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_bspline_basis_matches_scipy(nu):
    # degree 9 on a clamped knot vector with two knots of multiplicity 6, as
    # the pressure oracle builds; evaluated at every knot and at random points
    rng = np.random.default_rng(4)
    edges = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 12)]))
    mult = np.ones(edges.size, dtype=int)
    mult[[3, 7]], mult[[0, -1]] = 6, 10
    t = np.repeat(edges, mult)
    x = np.concatenate([edges, rng.uniform(0.0, 1.0, 300)])
    first, values = bspline_basis(t, 9, x, nu)
    assert values.shape == (nu + 1, 10, x.size)
    for k in range(nu + 1):   # every derivative up to nu
        every = interpolate.BSpline(t, np.eye(t.size - 10), 9)(x, k)
        local = np.take_along_axis(every, first[:, None] + np.arange(10), axis=1)
        scale = np.max(np.abs(every))
        np.testing.assert_allclose(values[k].T, local, rtol=0, atol=1e-13 * scale)
        # the splines outside the window vanish at x
        np.testing.assert_allclose(local.sum(axis=1), every.sum(axis=1), rtol=0,
                                   atol=1e-13 * scale)


@pytest.mark.parametrize("x,y", [
    ([0.0, 0.5, 0.5, 1.0], [1.0] * 4),             # repeated node
    ([0.0, 0.75, 0.5, 1.0], [1.0] * 4),            # descending
    ([0.0, 0.5, np.inf, 1.0], [1.0] * 4),          # non-finite node
    ([0.0, 0.5, 0.7, 1.0], [1.0, np.nan, 1.0, 1.0]),  # non-finite value
    ([0.0], [1.0]),                                # fewer than 2 nodes
    ([0.0, 0.5, 1.0], [1.0, 1.0]),                 # one value short
])
def test_spline_rejects_bad_nodes(x, y):
    with pytest.raises(ValueError):
        CubicSpline(x, y)


def test_complex_pair():
    c = ComplexRadialFunction(PolynomialFunction([0.0, 1.0]),
                              PolynomialFunction([0.0, 0.0, 1.0]))
    assert c(0.5) == pytest.approx(0.5 + 0.25j)
    assert c.derivative(0.5) == pytest.approx(1.0 + 1.0j)


def test_real_only_complex_wrapper_returns_complex():
    c = ComplexRadialFunction(PolynomialFunction([0.0, 1.0]))
    assert c(0.25) == 0.25 + 0.0j
    vals = c(np.array([0.1, 0.2]))
    assert vals.dtype == complex


# one kind of radial data each: its value and its derivative (or q and q')
ONE_PATH_KINDS = {
    "poly": lambda: PolynomialFunction([2.0, -0.3, 0.7, -1.1]),
    "poly-constant": lambda: PolynomialFunction([3.0]),
    "expr": lambda: ExpressionFunction("exp(-r^2)*sin(3*r) + sqrt(1 + r)/(2 - r) + r^3"),
    "expr-constant": lambda: ExpressionFunction("2.5 + sqrt(0)"),
    "expr-r": lambda: ExpressionFunction("r"),
    "table": lambda: TableFunction(np.linspace(0.0, 1.0, 9),
                                   np.cos(3.0 * np.linspace(0.0, 1.0, 9))),
    "complex": lambda: ComplexRadialFunction(PolynomialFunction([1.0, 2.0]),
                                             ExpressionFunction("sin(r)")),
    "complex-real": lambda: ComplexRadialFunction(ExpressionFunction("1 + r^2")),
    "pressure": lambda: pressure_bvp_solve(u_quadratic(), standard_mode(3)),
}


@functools.cache
def _value_and_slope(kind):
    fn = ONE_PATH_KINDS[kind]()
    return (fn.q, fn.q_prime) if kind == "pressure" else (fn, fn.derivative)


@settings(max_examples=300)
@given(st.sampled_from(sorted(ONE_PATH_KINDS)), st.floats(0.0, 1.0))
def test_a_scalar_radius_takes_the_array_path(kind, r):
    # a scalar is a 0-d array: its value and slope are the bits of a one-point array's
    for fn in _value_and_slope(kind):
        scalar, array = fn(r), fn(np.array([r]))
        assert isinstance(scalar, np.generic) and array.shape == (1,)
        assert scalar.dtype == array.dtype and scalar.tobytes() == array.tobytes()
