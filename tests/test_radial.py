import numpy as np
import pytest

from swirlcurv import (ComplexRadialFunction, DomainError, ExpressionFunction,
                       PolynomialFunction, TableFunction, zero)


def test_polynomial_values_and_derivatives():
    p = PolynomialFunction([2.0, 0.0, -1.0])  # 2 - r^2
    assert p(0.5) == pytest.approx(1.75)
    assert p.derivative(0.5) == pytest.approx(-1.0)
    r = np.linspace(0, 1, 7)
    np.testing.assert_allclose(p(r), 2.0 - r ** 2)


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


def test_complex_pair_and_scaling():
    c = ComplexRadialFunction(PolynomialFunction([0.0, 1.0]),
                              PolynomialFunction([0.0, 0.0, 1.0]))
    assert c(0.5) == pytest.approx(0.5 + 0.25j)
    assert c.derivative(0.5) == pytest.approx(1.0 + 1.0j)
    s = c.scaled(2.0j)
    assert s(0.5) == pytest.approx(2.0j * (0.5 + 0.25j))
    assert s.derivative(0.5) == pytest.approx(2.0j * (1.0 + 1.0j))
    ss = s.scaled(0.5)
    assert ss(0.5) == pytest.approx(1.0j * (0.5 + 0.25j))


def test_real_only_complex_wrapper_returns_complex():
    c = ComplexRadialFunction(PolynomialFunction([0.0, 1.0]))
    assert c(0.25) == 0.25 + 0.0j
    vals = c(np.array([0.1, 0.2]))
    assert vals.dtype == complex
