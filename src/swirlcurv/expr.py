"""A small differentiable expression language for radial profiles.

Expressions are functions of the single variable ``r`` built from constants,
``+ - * /``, powers with constant exponents, and the unary functions
``sin cos exp log sqrt``.  Every AST node knows its exact symbolic
derivative (``Node.diff``), so profiles written as expressions get exact
derivatives.

Precedence (tightest first): power, unary minus, ``* /``, ``+ -``; binary
operators associate to the left.
"""

from __future__ import annotations

import math
import re
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
            if np.ndim(r) else float(self.value)

    def diff(self):
        return Const(0.0)


@dataclass(frozen=True)
class Var(Node):
    def eval(self, r):
        return np.asarray(r, dtype=float) if np.ndim(r) else float(r)

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
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip over whitespace-only tail
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    # grammar: expr > term > unary > power > atom
    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return _neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            _, _, expos = self.peek()
            exponent = self.unary()
            if not _foldable(exponent):
                raise ParseError("exponent must be a constant", expos)
            return Pow(base, _fold(exponent))
        return base

    def atom(self) -> Node:
        kind, val, pos = self.advance()
        if kind == "num":
            return Const(val)
        if kind == "name":
            if val == "r":
                return Var()
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Func(val, arg)
            if val == "pi":
                return Const(math.pi)
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


def _foldable(node: Node) -> bool:
    if isinstance(node, Const):
        return True
    if isinstance(node, Var):
        return False
    if isinstance(node, BinOp):
        return _foldable(node.left) and _foldable(node.right)
    if isinstance(node, (Neg, Func)):
        return _foldable(node.arg)
    if isinstance(node, Pow):
        return _foldable(node.base)
    return False


def _fold(node: Node) -> float:
    return float(node.eval(0.0))


def parse_expression(text: str) -> Node:
    """Parse ``text`` into an AST; raises :class:`ParseError` with an offset."""
    return _Parser(text).parse()
