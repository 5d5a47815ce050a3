"""A small differentiable expression language for radial profiles.

Expressions are functions of the single variable ``r`` built from constants,
``+ - * /``, powers with constant exponents, and the unary functions
``sin cos exp log sqrt``.  Every AST node evaluates its value (``Node.eval``)
and its value with its exact first derivative (``Node.jet``, forward-mode
differentiation: Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
2008), so profiles written as expressions get exact derivatives.  Both take
r of any shape; a scalar is a 0-d array, and its value a numpy scalar.

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
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

__all__ = ["Node", "parse_expression"]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Node:
    """Base AST node."""

    def eval(self, r):
        raise NotImplementedError

    def jet(self, r):
        """(value, exact first derivative) at ``r`` by forward-mode evaluation:
        the chain rule applied node by node, with no derivative tree.  Slopes
        start as the numbers 0 and 1 at constants and at ``r``, so a slope that
        never meets an array stays a number."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Node):
    value: float

    def eval(self, r):
        return np.full(np.shape(r), self.value)[()]

    def jet(self, r):
        return self.eval(r), 0.0


@dataclass(frozen=True)
class Var(Node):
    def eval(self, r):
        return np.asarray(r, dtype=float)[()]

    def jet(self, r):
        return self.eval(r), 1.0


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def eval(self, r):
        a = self.left.eval(r)
        b = self.right.eval(r)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def jet(self, r):
        (a, da), (b, db) = self.left.jet(r), self.right.jet(r)
        if self.op == "+":
            return a + b, da + db
        if self.op == "-":
            return a - b, da - db
        if self.op == "*":
            return a * b, da * b + a * db
        return a / b, (da * b - a * db) / (b * b)


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def eval(self, r):
        return -self.arg.eval(r)

    def jet(self, r):
        a, da = self.arg.jet(r)
        return -a, -da


@dataclass(frozen=True)
class Pow(Node):
    """Power with a constant exponent."""

    base: Node
    exponent: float

    def eval(self, r):
        # np.power, not **: a numpy scalar's ** is C's pow, which can differ from
        # the ufunc in the last bit, and a value must not depend on r's shape or
        # on being folded at parse time
        return np.power(self.base.eval(r), self.exponent)

    def jet(self, r):
        a, da = self.base.jet(r)
        p = self.exponent
        # a^0 is 1 whatever a is: its slope is 0 even where a's slope is not finite
        return np.power(a, p), (p * np.power(a, p - 1) * da if p else 0.0)


# the slope of each function, as a function of its argument
_SLOPES = {"sin": np.cos, "cos": lambda a: -np.sin(a), "exp": np.exp,
           "log": lambda a: 1.0 / a, "sqrt": lambda a: 0.5 / np.sqrt(a)}


@dataclass(frozen=True)
class Func(Node):
    name: str
    arg: Node

    def eval(self, r):
        x = self.arg.eval(r)
        fn = getattr(np, self.name)
        return fn(x)

    def jet(self, r):
        a, da = self.arg.jet(r)
        return getattr(np, self.name)(a), _SLOPES[self.name](a) * da


# ---------------------------------------------------------------------------
# Parser: Python's own, on a whitelist of its syntax
# ---------------------------------------------------------------------------

# a character outside the language, or the second star of Python's power ``**``
_OUTSIDE = re.compile(r"[^\w \t\n\r\f\v.+\-*/^()]|(?<=\*)\*", re.ASCII)
_BLANKS = str.maketrans("\t\n\r\f\v", "     ")
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _fold(node: Node) -> Node:
    """``node`` as a ``Const`` when it has operands, all constants, and its value
    is finite and computes without a floating-point error (underflow flushes to
    0); otherwise ``node``."""
    operands = [v for v in vars(node).values() if isinstance(v, Node)]
    if operands and all(isinstance(a, Const) for a in operands):
        with contextlib.suppress(FloatingPointError), np.errstate(all="raise", under="ignore"):
            value = float(node.eval(0.0))
            if math.isfinite(value):
                return Const(value)
    return node


def parse_expression(text: str) -> Node:
    """Parse ``text`` into an AST; raises :class:`ParseError` with an offset."""
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

    def walk(node) -> Node:
        pos = offset(node.col_offset)
        source = src[node.col_offset:node.end_col_offset]
        if isinstance(node, ast.Constant) and _NUMBER.fullmatch(source):
            return Const(float(source))
        if isinstance(node, ast.Name):
            if node.id == "r":
                return Var()
            if node.id == "pi":
                return Const(math.pi)
            raise ParseError(f"unknown identifier {node.id!r}", pos)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return _fold(Neg(walk(node.operand)))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _fold(BinOp(_BINOPS[type(node.op)], walk(node.left), walk(node.right)))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exponent = walk(node.left), walk(node.right)
            if not (isinstance(exponent, Const) and math.isfinite(exponent.value)):
                has_r = any(isinstance(n, ast.Name) and n.id == "r" for n in ast.walk(node.right))
                raise ParseError("exponent must be a constant" if has_r
                                 else "exponent must be finite", offset(node.right.col_offset))
            return _fold(Pow(base, exponent.value))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _SLOPES and len(node.args) == 1):
            return _fold(Func(node.func.id, walk(node.args[0])))
        # an empty tuple is what ``()`` wraps around blank text
        raise ParseError("expected an expression" if isinstance(node, ast.Tuple)
                         else f"unexpected {source!r}", pos)

    return walk(tree)
