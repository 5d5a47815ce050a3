import json
import math
import re
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swirlcurv import ParseError, parse_expression

from test_cli import SEED_EXPRESSIONS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def ev(text, r):
    return parse_expression(text).eval(r)


def dv(text, r):
    return parse_expression(text).jet(r)[1]


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


def test_power_with_exponent_zero_has_slope_zero():
    # the power rule would give 0 * a^-1 * a', nan where a = 0 or a' is infinite
    with np.errstate(divide="ignore", invalid="raise"):
        for text, r in [("r^0", 0.0), ("sqrt(r)^0", 0.0), ("(r - 0.5)^0", 0.5)]:
            assert parse_expression(text).jet(r) == (1.0, 0.0)


@given(st.floats(min_value=0.05, max_value=0.95))
def test_derivative_matches_finite_difference(r):
    text = "exp(-r^2) * sin(3*r) + r / (2 + cos(r))"
    node = parse_expression(text)
    h = 1e-6
    fd = (node.eval(r + h) - node.eval(r - h)) / (2 * h)
    assert node.jet(r)[1] == pytest.approx(fd, rel=1e-7, abs=1e-9)


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
LEAVES = NUMBERS | st.sampled_from(["r", "pi", "1e400"])


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


# ---------------------------------------------------------------------------
# Forward-mode derivatives
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(TREES, st.floats(min_value=0.0, max_value=1.0))
def test_jet_value_is_eval_and_slope_does_not_depend_on_the_shape(tree, r):
    node = parse_expression(_render(tree, True))
    radii = np.array([0.0, r, 0.5, 1.0])
    with np.errstate(all="ignore"):
        for x in (r, radii):
            assert np.array_equal(node.jet(x)[0], node.eval(x), equal_nan=True)
        slopes = np.broadcast_to(node.jet(radii)[1], radii.shape)
        assert np.array_equal([node.jet(x)[1] for x in radii], slopes, equal_nan=True)


def _expressions(config):
    """Every ``{"expr": ...}`` text in a JSON config."""
    if isinstance(config, dict):
        return [config["expr"]] if "expr" in config else \
            [t for v in config.values() for t in _expressions(v)]
    return [t for v in config for t in _expressions(v)] if isinstance(config, list) else []


README_CONFIG = json.loads(
    re.search(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1))
# the fuzz seeds, the benchmark's workloads and the README's example config
EXPRESSIONS = sorted(set(SEED_EXPRESSIONS + _expressions(README_CONFIG)).union(
    *(_expressions(config) for w in workloads.WORKLOADS
      for *_, config in workloads.invocations(w, workloads.DEFAULT_SEED))))
MP_NAMES = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp, "log": mpmath.log,
            "sqrt": mpmath.sqrt, "pi": mpmath.pi}


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_jet_slope_matches_mpmath(text):
    node = parse_expression(text)
    source = text.replace("^", "**")
    with mpmath.workdps(30):
        for r in np.linspace(0.0, 1.0, 21)[1:-1]:
            d = float(mpmath.diff(lambda x: eval(source, dict(MP_NAMES, r=x)), mpmath.mpf(r)))
            assert abs(node.jet(r)[1] - d) <= 1e-14 * max(abs(d), 1.0), (text, r)
