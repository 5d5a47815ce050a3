"""A small differentiable expression language for radial profiles.

Expressions are functions of the single variable ``r`` built from constants,
``+ - * /``, powers with constant exponents, and the unary functions
``sin cos exp log sqrt``.  Every AST node knows its exact symbolic
derivative (``Node.diff``), so profiles written as expressions get exact
derivatives.

Precedence (tightest first): power, unary minus, ``* /``, ``+ -``; power
associates to the right and binary operators to the left.  These are
Python's rules, and Python's parser reads the text, with ``^`` as ``**``; a
walker over its tree accepts only the subset above.
"""

from __future__ import annotations

import ast
import itertools
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

__all__ = ["Node", "parse_expression"]

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Node:
    """Base AST node."""

    def eval(self, r):
        raise NotImplementedError

    def diff(self) -> "Node":
        """Exact symbolic derivative with light constant folding."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Node):
    value: float

    def eval(self, r):
        return np.broadcast_to(np.float64(self.value), np.shape(r)).copy() \
            if np.ndim(r) else np.float64(self.value)

    def diff(self):
        return Const(0.0)


@dataclass(frozen=True)
class Var(Node):
    def eval(self, r):
        return np.asarray(r, dtype=float) if np.ndim(r) else np.float64(r)

    def diff(self):
        return Const(1.0)


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

    def diff(self):
        la, rb = self.left, self.right
        da, db = la.diff(), rb.diff()
        if self.op in "+-":
            return _add(da, db) if self.op == "+" else _sub(da, db)
        if self.op == "*":
            return _add(_mul(da, rb), _mul(la, db))
        # quotient rule
        num = _sub(_mul(da, rb), _mul(la, db))
        return BinOp("/", num, _mul(rb, rb))


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def eval(self, r):
        return -self.arg.eval(r)

    def diff(self):
        return _neg(self.arg.diff())


@dataclass(frozen=True)
class Pow(Node):
    """Power with a constant exponent."""

    base: Node
    exponent: float

    def eval(self, r):
        # np.power for scalars too: Python's float ** can differ from numpy's in
        # the last bit, and a value must not depend on being evaluated in an array
        return np.power(self.base.eval(r), self.exponent)

    def diff(self):
        p = self.exponent
        if p == 0:
            return Const(0.0)
        return _mul(_mul(Const(p), Pow(self.base, p - 1)), self.base.diff())


@dataclass(frozen=True)
class Func(Node):
    name: str
    arg: Node

    def eval(self, r):
        x = self.arg.eval(r)
        fn = getattr(np, self.name)
        return fn(x)

    def diff(self):
        da = self.arg.diff()
        a = self.arg
        if self.name == "sin":
            outer = Func("cos", a)
        elif self.name == "cos":
            outer = _neg(Func("sin", a))
        elif self.name == "exp":
            outer = Func("exp", a)
        elif self.name == "log":
            outer = BinOp("/", Const(1.0), a)
        else:  # sqrt
            outer = BinOp("/", Const(0.5), Func("sqrt", a))
        return _mul(outer, da)


# -- tiny constant-folding constructors so derivative trees stay small -------

def _const_of(node):
    return node.value if isinstance(node, Const) else None


def _add(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        return Const(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        return Const(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        return Const(ca * cb)
    if ca == 0.0 or cb == 0.0:
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    return BinOp("*", a, b)


def _neg(a):
    ca = _const_of(a)
    if ca is not None:
        return Const(-ca)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# ---------------------------------------------------------------------------
# Parser: Python's own, on a whitelist of its syntax
# ---------------------------------------------------------------------------

# a character outside the language, or the second star of Python's power ``**``
_OUTSIDE = re.compile(r"[^\w \t\n\r\f\v.+\-*/^()]|(?<=\*)\*", re.ASCII)
_BLANKS = str.maketrans("\t\n\r\f\v", "     ")
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


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
            return _neg(walk(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return BinOp(_BINOPS[type(node.op)], walk(node.left), walk(node.right))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exponent = walk(node.left), walk(node.right)
            expos = offset(node.right.col_offset)
            if any(isinstance(n, ast.Name) and n.id == "r" for n in ast.walk(node.right)):
                raise ParseError("exponent must be a constant", expos)
            try:
                # underflow flushes to 0, a finite exponent
                with np.errstate(all="raise", under="ignore"):
                    value = float(exponent.eval(0.0))
            except FloatingPointError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError("exponent must be finite", expos)
            return Pow(base, value)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1):
            return Func(node.func.id, walk(node.args[0]))
        # an empty tuple is what ``()`` wraps around blank text
        raise ParseError("expected an expression" if isinstance(node, ast.Tuple)
                         else f"unexpected {source!r}", pos)

    return walk(tree)
