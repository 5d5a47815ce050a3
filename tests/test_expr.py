import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("text", ["1 2", "r^02"])
def test_syntax_error_gives_no_python_advice(text):
    # Python's parser advises a comma for "1 2" and an 0o prefix for "02"
    with pytest.raises(ParseError) as exc:
        parse_expression(text)
    assert str(exc.value).startswith("invalid syntax (at offset ")
    assert "Perhaps" not in str(exc.value) and "0o" not in str(exc.value)


def test_unknown_identifier_and_empty():
    with pytest.raises(ParseError):
        parse_expression("theta")
    with pytest.raises(ParseError):
        parse_expression("")


# ---------------------------------------------------------------------------
# The grammar: precedence and associativity, pinned by rendering random trees
# ---------------------------------------------------------------------------

# binding strength of each node kind, loosest first
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}
NUMBERS = st.sampled_from(["0", "3", "0.5", "2.", ".25", "1e-3", "2.5E+2"])
LEAVES = NUMBERS | st.sampled_from(["r", "pi"])


def _kind(tree):
    return "atom" if isinstance(tree, str) or tree[0] == "call" else tree[0]


def _render(tree, minimal):
    """Source text of ``tree``: every compound operand in parentheses, or
    only those that the documented precedence needs."""
    def sub(child, needs):
        text = _render(child, minimal)
        compound = not isinstance(child, str) and child[0] != "call"
        return f"({text})" if compound and (needs or not minimal) else text

    if isinstance(tree, str):
        return tree
    kind = tree[0]
    if kind == "call":
        return f"{tree[1]}({_render(tree[2], minimal)})"
    if kind == "neg":
        return "-" + sub(tree[1], _PREC[_kind(tree[1])] < _PREC["neg"])
    left, right = tree[1], tree[2]
    if kind == "^":   # right-associative; the exponent is read as a unary expression
        return (sub(left, _PREC[_kind(left)] <= _PREC["^"]) + "^"
                + sub(right, _PREC[_kind(right)] < _PREC["neg"]))
    # binary operators associate to the left
    return (sub(left, _PREC[_kind(left)] < _PREC[kind]) + f" {kind} "
            + sub(right, _PREC[_kind(right)] <= _PREC[kind]))


def _value(tree):
    """The value of a tree without ``r``, or None if it or a power inside it
    is not a finite real number."""
    if isinstance(tree, str):
        return math.pi if tree == "pi" else float(tree)
    kind, *args = tree
    values = [_value(a) for a in args]
    if None in values:
        return None
    if kind == "neg":
        return -values[0]
    a, b = values
    if kind != "^":
        return {"+": a + b, "-": a - b, "*": a * b}[kind]
    try:
        v = a ** b
    except (OverflowError, ZeroDivisionError):
        return None
    return v if isinstance(v, float) and math.isfinite(v) else None


# constant exponents over small positive numbers, kept where every power in them is finite
EXPONENTS = st.recursive(
    st.sampled_from(["1", "2", "3", "0.5", "pi"]),
    lambda inner: st.tuples(st.just("neg"), inner)
    | st.tuples(st.sampled_from(["+", "-", "*", "^"]), inner, inner),
    max_leaves=3).filter(lambda t: _value(t) is not None)

TREES = st.recursive(
    LEAVES,
    lambda inner: st.tuples(st.just("neg"), inner)
    | st.tuples(st.sampled_from(["+", "-", "*", "/"]), inner, inner)
    | st.tuples(st.just("^"), inner, EXPONENTS)
    | st.tuples(st.just("call"), st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), inner),
    max_leaves=12)


@settings(max_examples=300)
@given(TREES)
def test_minimal_and_full_parentheses_parse_alike(tree):
    assert parse_expression(_render(tree, True)) == parse_expression(_render(tree, False))


def test_rendering_follows_the_documented_precedence():
    assert _render(("-", "1", ("-", "2", "3")), True) == "1 - (2 - 3)"
    assert _render(("neg", ("^", "r", "2")), True) == "-r^2"
    assert _render(("^", ("neg", "r"), ("neg", "2")), True) == "(-r)^-2"
    assert _render(("^", "2", ("^", "3", "2")), True) == "2^3^2"
    assert _render(("*", ("neg", "r"), ("+", "r", "1")), False) == "(-r) * (r + 1)"


@pytest.mark.parametrize("text", [
    "r**2", "+r", "r if r else 1", "r.real", "0x1F", "1_0", "1j", "r # c",
    "sin(r, r)", "sin()", "[r]", "r < 1", "lambda: r"])
def test_python_only_syntax_is_refused(text):
    with pytest.raises(ParseError):
        parse_expression(text)
