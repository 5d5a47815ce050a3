"""A small differentiable expression language for radial profiles.

Expressions are functions of the single variable ``r`` built from constants,
``+ - * /``, powers with constant exponents, and the unary functions
``sin cos exp log sqrt``.  Parsing builds one function per expression, run on
values (``Expression.eval``) or on jets, pairs of a value and its exact first
derivative (``Expression.jet``, forward-mode differentiation: Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., 2008): each operation's value and
slope rule is written once.  A subexpression without ``r`` stays a plain
number and carries no slope.  Both take r of any shape; a scalar is a 0-d
array, and its value a numpy scalar.

Precedence (tightest first): power, unary minus, ``* /``, ``+ -``; power
associates to the right and binary operators to the left.  These are
Python's rules, and Python's parser reads the text, with ``^`` as ``**``; a
walker over its tree accepts only the subset above.
"""

from __future__ import annotations

import ast
import contextlib
import itertools
import math
import operator
import re
import warnings

import numpy as np

from .errors import ParseError

__all__ = ["Expression", "parse_expression"]


def _unary(fn, slope, x):
    """fn(x); on a jet (value, slope), the jet of fn(x), ``slope`` being fn's derivative."""
    if not isinstance(x, tuple):
        return fn(x)
    a, da = x
    return fn(a), slope(a) * da


def _binary(fn, slope, x, y):
    """fn(x, y); when x or y is a jet (value, slope), the jet of fn(x, y), with
    ``slope(a, da, b, db)`` its slope and 0 the slope of a plain operand."""
    if not (isinstance(x, tuple) or isinstance(y, tuple)):
        return fn(x, y)
    a, da = x if isinstance(x, tuple) else (x, 0.0)
    b, db = y if isinstance(y, tuple) else (y, 0.0)
    return fn(a, b), slope(a, da, b, db)


_BINARY = {
    ast.Add: (operator.add, lambda a, da, b, db: da + db),
    ast.Sub: (operator.sub, lambda a, da, b, db: da - db),
    ast.Mult: (operator.mul, lambda a, da, b, db: da * b + a * db),
    ast.Div: (operator.truediv, lambda a, da, b, db: (da * b - a * db) / (b * b)),
    # a constant exponent p.  np.power, not **: a numpy scalar's ** is C's pow,
    # which can differ from the ufunc in the last bit, and a value must not
    # depend on r's shape.  a^0 is 1 whatever a is: its slope is 0 even where
    # a's slope is not finite
    ast.Pow: (np.power, lambda a, da, p, _: p * np.power(a, p - 1) * da if p else 0.0),
}

# the slope of each function, as a function of its argument
_SLOPES = {"sin": np.cos, "cos": lambda a: -np.sin(a), "exp": np.exp,
           "log": lambda a: 1.0 / a, "sqrt": lambda a: 0.5 / np.sqrt(a)}


class Expression:
    """A parsed expression."""

    def __init__(self, run):
        self._run = run

    def eval(self, r):
        r = np.asarray(r, dtype=float)[()]
        return _shaped(self._run(r), r)

    def jet(self, r):
        """(value, exact first derivative) at ``r``.  The slope starts as the
        number 1 at ``r``, so a slope that never meets an array stays a number."""
        r = np.asarray(r, dtype=float)[()]
        y = self._run((r, 1.0))
        value, slope = y if isinstance(y, tuple) else (y, 0.0)
        return _shaped(value, r), slope


def _shaped(value, r):
    """``value`` with one entry per radius: a constant has none of r's shape."""
    return value if np.shape(value) == np.shape(r) else np.full(np.shape(r), value)[()]


# ---------------------------------------------------------------------------
# Parser: Python's own, on a whitelist of its syntax
# ---------------------------------------------------------------------------

# a character outside the language, or the second star of Python's power ``**``
_OUTSIDE = re.compile(r"[^\w \t\n\r\f\v.+\-*/^()]|(?<=\*)\*", re.ASCII)
_BLANKS = str.maketrans("\t\n\r\f\v", "     ")
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an Expression; raises :class:`ParseError` with an offset."""
    bad = _OUTSIDE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    depth = [0, *itertools.accumulate((c == "(") - (c == ")") for c in text)]
    if -1 in depth:   # that ")" would close the parenthesis put around the text
        raise ParseError("unmatched ')'", depth.index(-1) - 1)
    if depth[-1]:
        raise ParseError("expected ')'", len(text))
    # one line in parentheses: blanks and line breaks are free, and a missing
    # last operand is an error at the closing one
    src = "(" + text.translate(_BLANKS).replace("^", "**") + ")"

    def offset(col):
        """The offset in ``text`` of column ``col`` of ``src``."""
        return min(max(col - 1 - src.count("**", 0, col), 0), len(text))

    try:
        # the error filter makes a SyntaxWarning (``1if`` on 3.11) a SyntaxError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = ast.parse(src, mode="eval").body
    except SyntaxError as exc:
        # Python's message may advise Python syntax ("Perhaps you forgot a comma?")
        raise ParseError("invalid syntax", offset((exc.offset or 1) - 1)) from None
    except MemoryError:   # CPython's parser reports its stack overflowing so
        raise RecursionError("expression nested too deeply") from None

    def walk(node):
        """The function of ``node``'s subtree, on values or on jets."""
        pos = offset(node.col_offset)
        source = src[node.col_offset:node.end_col_offset]
        if isinstance(node, ast.Constant) and _NUMBER.fullmatch(source) or source == "pi":
            return lambda x, c=np.float64(math.pi if source == "pi" else float(source)): c
        if isinstance(node, ast.Name):
            if node.id == "r":
                return lambda x: x
            raise ParseError(f"unknown identifier {node.id!r}", pos)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            arg, slope = walk(node.operand), (lambda a: -1.0)
            return lambda x: _unary(operator.neg, slope, arg(x))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            (fn, slope), left, right = _BINARY[type(node.op)], walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Pow):
                right = exponent(node.right, right)
            return lambda x: _binary(fn, slope, left(x), right(x))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _SLOPES and len(node.args) == 1):
            fn, slope, arg = getattr(np, node.func.id), _SLOPES[node.func.id], walk(node.args[0])
            return lambda x: _unary(fn, slope, arg(x))
        # an empty tuple is what ``()`` wraps around blank text
        raise ParseError("expected an expression" if isinstance(node, ast.Tuple)
                         else f"unexpected {source!r}", pos)

    def exponent(node, run):
        """The function of a power's exponent: its value, which may not contain r
        and must compute to a finite number (one that underflows is 0)."""
        has_r = any(isinstance(n, ast.Name) and n.id == "r" for n in ast.walk(node))
        with contextlib.suppress(FloatingPointError), np.errstate(all="raise", under="ignore"):
            if not has_r and math.isfinite(p := float(run(None))):
                return lambda x: p
        raise ParseError("exponent must be a constant" if has_r else "exponent must be finite",
                         offset(node.col_offset))

    return Expression(walk(tree))
