"""Tiny expression frontend for reaction terms b(x,u) and root formulas.

Grammar: variables x and u, decimal literals, + - * / ^ (integer powers
only), unary minus, and the functions sin, cos, exp, ln, tanh, sqrt.
Binary operators are left-associative; precedence is ^ above unary minus
above * / above + -.

Expressions are immutable trees.  Differentiation is symbolic and closed
over the grammar; the only simplification applied is constant folding plus
pruning of additive/multiplicative identities, so derivative trees stay
printable and evaluation stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "ln", "tanh", "sqrt")
VARIABLES = ("x", "u")


class ParseError(ValueError):
    """Syntax or identifier error, with the byte offset of the offender."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation hit a point outside a function's domain."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(e: Expr, value=None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


# Smart constructors: fold constants and strip 0/1 identities so repeated
# differentiation does not blow the tree up.

def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def powi(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if _is_const(base):
        return Const(base.value ** exponent)
    return Pow(base, exponent)


# ---------------------------------------------------------------------------
# Tokenizer / parser (recursive descent)

_TOK_NUM = "num"
_TOK_IDENT = "ident"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n:
                d = text[j]
                if d.isdigit() or d == ".":
                    j += 1
                elif d in "eE" and not seen_e and j + 1 < n and (
                        text[j + 1].isdigit() or text[j + 1] in "+-"):
                    seen_e = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad numeric literal {text[i:j]!r}", i) from None
            tokens.append((_TOK_NUM, value, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_TOK_IDENT, text[i:j], i))
            i = j
        elif c in "+-*/^()":
            tokens.append((_TOK_OP, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append((_TOK_END, "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != _TOK_OP or value != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> Expr:
        e = self.sum()
        kind, value, offset = self.peek()
        if kind != _TOK_END:
            raise ParseError(f"unexpected token {value!r}", offset)
        return e

    def sum(self) -> Expr:
        e = self.product()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "+-":
                self.advance()
                rhs = self.product()
                e = BinOp(value, e, rhs)
            else:
                return e

    def product(self) -> Expr:
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "*/":
                self.advance()
                rhs = self.unary()
                e = BinOp(value, e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == _TOK_OP and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        while True:
            kind, value, offset = self.peek()
            if kind == _TOK_OP and value == "^":
                self.advance()
                base = Pow(base, self._int_exponent())
            else:
                return base

    def _int_exponent(self) -> int:
        # exponents are (possibly negated) integer literals only
        sign = 1
        kind, value, offset = self.peek()
        if kind == _TOK_OP and value == "-":
            self.advance()
            sign = -1
            kind, value, offset = self.peek()
        if kind != _TOK_NUM:
            raise ParseError("power exponent must be an integer literal", offset)
        if value != int(value):
            raise ParseError(f"power exponent must be an integer, got {value}", offset)
        self.advance()
        return sign * int(value)

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == _TOK_NUM:
            return Const(value)
        if kind == _TOK_IDENT:
            if value in VARIABLES:
                return Var(value)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == _TOK_OP and value == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {value!r}", offset)


def parse(text: str) -> Expr:
    """Parse an expression string over the variables x and u."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing (round-trips through parse to a structurally equal tree)


def to_string(e: Expr) -> str:
    if isinstance(e, Const):
        v = e.value
        if v < 0 or (v == 0 and math.copysign(1.0, v) < 0):
            return f"(-{_fmt_number(-v)})"
        return _fmt_number(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_string(e.arg)})"
    if isinstance(e, BinOp):
        return f"({to_string(e.left)}{e.op}{to_string(e.right)})"
    if isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"-{-e.exponent}"
        return f"({to_string(e.base)}^{exp})"
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return repr(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# Differentiation


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to 'x' or 'u'."""
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}")
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, var))
    if isinstance(e, BinOp):
        da = differentiate(e.left, var)
        db = differentiate(e.right, var)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        if e.op == "/":
            num = sub(mul(da, e.right), mul(e.left, db))
            return div(num, powi(e.right, 2))
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, Pow):
        d_base = differentiate(e.base, var)
        return mul(mul(Const(float(e.exponent)), powi(e.base, e.exponent - 1)), d_base)
    if isinstance(e, Call):
        da = differentiate(e.arg, var)
        a = e.arg
        if e.func == "sin":
            outer = Call("cos", a)
        elif e.func == "cos":
            outer = neg(Call("sin", a))
        elif e.func == "exp":
            outer = Call("exp", a)
        elif e.func == "ln":
            return div(da, a)
        elif e.func == "tanh":
            outer = sub(ONE, powi(Call("tanh", a), 2))
        elif e.func == "sqrt":
            return div(da, mul(Const(2.0), Call("sqrt", a)))
        else:
            raise ValueError(f"unknown function {e.func!r}")
        return mul(outer, da)
    raise TypeError(f"not an Expr: {e!r}")


def substitute(e: Expr, var: str, replacement: Expr) -> Expr:
    """Replace every occurrence of a variable by another expression."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacement if e.name == var else e
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, var, replacement))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, var, replacement),
                     substitute(e.right, var, replacement))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, var, replacement), e.exponent)
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, var, replacement))
    raise TypeError(f"not an Expr: {e!r}")


def uses_variable(e: Expr, var: str) -> bool:
    if isinstance(e, Var):
        return e.name == var
    if isinstance(e, Neg):
        return uses_variable(e.arg, var)
    if isinstance(e, BinOp):
        return uses_variable(e.left, var) or uses_variable(e.right, var)
    if isinstance(e, Pow):
        return uses_variable(e.base, var)
    if isinstance(e, Call):
        return uses_variable(e.arg, var)
    return False


# ---------------------------------------------------------------------------
# Evaluation (scalars or numpy arrays)


def evaluate(e: Expr, x, u):
    """Evaluate at (x, u); either argument may be a numpy array.

    Returns a float when x and u are both scalars, else a float array of
    their broadcast shape (a constant expression too).  Domain violations
    (ln of non-positive, sqrt of negative, division by zero) raise
    DomainError naming the offending operand value.
    """
    out = _eval(e, x, u)
    shape = np.broadcast_shapes(np.shape(x), np.shape(u))
    if not shape:
        return float(out)
    out = np.asarray(out, dtype=float)
    return out if out.shape == shape else np.array(np.broadcast_to(out, shape))


def shaped_like(out, x):
    """The shape rule of evaluate for a result computed on np.atleast_1d(x):
    a float when x is 0-d, otherwise a float array of x's shape (sizes 0
    and 1 included)."""
    if np.ndim(x) == 0:
        return float(out[0])
    return np.reshape(out, np.shape(x))


def _eval(e: Expr, x, u):
    # constant and x-only subtrees stay scalars; evaluate broadcasts once
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x if e.name == "x" else u
    if isinstance(e, Neg):
        return -_eval(e.arg, x, u)
    if isinstance(e, BinOp):
        a = _eval(e.left, x, u)
        b = _eval(e.right, x, u)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if np.any(b == 0.0):
            raise DomainError(f"division by zero (numerator {_sample(a)})")
        return a / b
    if isinstance(e, Pow):
        base = _eval(e.base, x, u)
        if e.exponent < 0 and np.any(base == 0.0):
            raise DomainError(f"zero raised to negative power {e.exponent}")
        return base ** e.exponent
    if isinstance(e, Call):
        a = _eval(e.arg, x, u)
        if e.func == "sin":
            return np.sin(a)
        if e.func == "cos":
            return np.cos(a)
        if e.func == "exp":
            return np.exp(a)
        if e.func == "tanh":
            return np.tanh(a)
        if e.func == "ln":
            if np.any(a <= 0.0):
                raise DomainError(f"ln of non-positive value {_sample(a, a <= 0.0)}")
            return np.log(a)
        if e.func == "sqrt":
            if np.any(a < 0.0):
                raise DomainError(f"sqrt of negative value {_sample(a, a < 0.0)}")
            return np.sqrt(a)
        raise ValueError(f"unknown function {e.func!r}")
    raise TypeError(f"not an Expr: {e!r}")


def _sample(a, mask=None):
    arr = np.asarray(a)
    if mask is not None and arr.shape:
        arr = arr[np.asarray(mask)]
    return float(arr.flat[0]) if arr.size else math.nan
