import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swirlcurv import ParseError, parse_expression


def ev(text, r):
    return parse_expression(text).eval(r)


def dv(text, r):
    return parse_expression(text).diff().eval(r)


def test_basic_arithmetic():
    assert ev("1 + 2*3", 0.0) == 7.0
    assert ev("(1 + 2)*3", 0.0) == 9.0
    assert ev("2 - 3 - 4", 0.0) == -5.0  # left associative
    assert ev("12 / 4 / 3", 0.0) == 1.0
    assert ev("r", 0.25) == 0.25


def test_power_precedence():
    # power binds tighter than unary minus: -r^2 == -(r^2)
    assert ev("-r^2", 0.5) == -0.25
    assert ev("2*r^3", 0.5) == 2 * 0.125
    assert ev("r^0.5", 0.25) == 0.5


def test_constant_exponent_folding():
    assert ev("r^(1+1)", 0.5) == 0.25
    with pytest.raises(ParseError):
        parse_expression("2^r")


def test_functions():
    assert ev("sin(pi*r)", 0.5) == pytest.approx(1.0, abs=1e-15)
    assert ev("exp(0)", 0.3) == 1.0
    assert ev("log(exp(1))", 0.3) == pytest.approx(1.0, rel=1e-15)
    assert ev("sqrt(r)", 0.49) == pytest.approx(0.7)
    assert ev("cos(0) + sin(0)", 0.0) == 1.0


def test_vectorized_eval():
    r = np.linspace(0.0, 1.0, 11)
    vals = ev("2 - r^2", r)
    assert isinstance(vals, np.ndarray)
    np.testing.assert_allclose(vals, 2.0 - r ** 2)
    # constants broadcast to the input shape
    assert ev("3", r).shape == r.shape


def test_symbolic_derivatives_simple():
    assert dv("2 - r^2", 0.3) == pytest.approx(-0.6)
    assert dv("r^3", 0.5) == pytest.approx(0.75)
    assert dv("sin(r)", 0.4) == pytest.approx(math.cos(0.4))
    assert dv("log(r)", 0.4) == pytest.approx(2.5)
    assert dv("sqrt(r)", 0.25) == pytest.approx(1.0)
    # quotient rule
    assert dv("r / (1 + r)", 0.5) == pytest.approx(1.0 / 1.5 ** 2)


def test_second_derivative():
    d2 = parse_expression("cos(2*r)").diff().diff()
    assert d2.eval(0.3) == pytest.approx(-4.0 * math.cos(0.6), rel=1e-14)


@given(st.floats(min_value=0.05, max_value=0.95))
def test_derivative_matches_finite_difference(r):
    text = "exp(-r^2) * sin(3*r) + r / (2 + cos(r))"
    node = parse_expression(text)
    d = node.diff()
    h = 1e-6
    fd = (node.eval(r + h) - node.eval(r - h)) / (2 * h)
    assert d.eval(r) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_expression("1 + @")
    assert exc.value.position == 4
    with pytest.raises(ParseError) as exc:
        parse_expression("sin(r")
    assert "expected" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_expression("r + foo")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse_expression("1 2")


def test_unknown_identifier_and_empty():
    with pytest.raises(ParseError):
        parse_expression("theta")
    with pytest.raises(ParseError):
        parse_expression("")
