"""Scalar arithmetic expressions: parsing, evaluation, differentiation.

Grammar (whitespace insignificant):

    expr    :=  term  (('+' | '-') term)*          left associative
    term    :=  unary (('*' | '/') unary)*          left associative
    unary   :=  '-' unary | power
    power   :=  atom ('^' unary)?                   right associative
    atom    :=  NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

so '^' binds tighter than unary minus, which binds tighter than '*'
and '/'.  Known functions: sin, cos, exp, log, sqrt, abs.  Variable
names must be declared by the caller; anything else is rejected at
parse time.

Evaluation follows IEEE doubles but turns log/sqrt of out-of-domain
arguments, division by zero and fractional powers of negative bases
into a DomainError instead of a quiet NaN.  Bindings may be scalars or
numpy arrays (broadcast elementwise).

Differentiation is exact and symbolic, with just enough folding
(0*x -> 0, x+0 -> x, x*1 -> x and the obvious power/negation cases)
to keep repeated derivatives from ballooning.
"""

from __future__ import annotations

from dataclasses import dataclass
import re

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")


class ParseError(ValueError):
    """Syntax or identifier problem, with the byte offset of the culprit."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class DomainError(ValueError):
    """Evaluation left the real domain (log(-1), 1/0, (-2)^0.5, ...)."""


class MissingBindingError(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"no binding for variable '{self.name}'"


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class Add:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Sub:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Mul:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Div:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Num | Var | Neg | Add | Sub | Mul | Div | Pow | Call

ZERO = Num(0.0)
ONE = Num(1.0)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _byte_offset(source: str, index: int) -> int:
    return len(source[:index].encode("utf-8"))


def _tokenize(source: str):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_at = n - len(stripped)
            raise ParseError(
                f"unexpected character {stripped[0]!r}", _byte_offset(source, bad_at)
            )
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), _byte_offset(source, m.start("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), _byte_offset(source, m.start("name"))))
        else:
            tokens.append(("op", m.group("op"), _byte_offset(source, m.start("op"))))
        pos = m.end()
    tokens.append(("end", "", _byte_offset(source, n)))
    return tokens


class _Parser:
    def __init__(self, source: str, variables):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.variables = frozenset(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected '{op}'", offset)
        return self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", offset)
        return e

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expression:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Expression:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(base, self.unary())
        return base

    def atom(self) -> Expression:
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            nk, ntext, _ = self.peek()
            if nk == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{text}'", offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in FUNCTIONS:
                raise ParseError(f"function '{text}' needs an argument list", offset)
            if text not in self.variables:
                raise UnknownIdentifierError(text, offset)
            return Var(text)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(
            "expected a number, variable, function call or '('", offset
        )


def parse(source: str, variables) -> Expression:
    """Parse `source` against the declared variable names."""
    return _Parser(source, variables).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _is_integral(x) -> bool:
    x = np.asarray(x)
    return bool(np.all(np.isfinite(x)) and np.all(x == np.round(x)))


def evaluate(e: Expression, bindings):
    """Evaluate with scalar or numpy-array bindings."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return bindings[e.name]
        except KeyError:
            raise MissingBindingError(e.name) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, bindings)
    if isinstance(e, Add):
        return evaluate(e.left, bindings) + evaluate(e.right, bindings)
    if isinstance(e, Sub):
        return evaluate(e.left, bindings) - evaluate(e.right, bindings)
    if isinstance(e, Mul):
        return evaluate(e.left, bindings) * evaluate(e.right, bindings)
    if isinstance(e, Div):
        num = evaluate(e.left, bindings)
        den = evaluate(e.right, bindings)
        # a float divisor (numpy scalars included) is tested without an array
        if den == 0.0 if isinstance(den, float) else np.any(np.asarray(den) == 0.0):
            raise DomainError("division by zero")
        return num / den
    if isinstance(e, Pow):
        base = evaluate(e.base, bindings)
        expo = evaluate(e.exponent, bindings)
        # a non-negative integral power is defined for every base
        if not (isinstance(expo, float) and expo >= 0.0 and expo.is_integer()):
            if np.any(np.asarray(base) < 0.0) and not _is_integral(expo):
                raise DomainError("fractional power of a negative base")
            if np.any((np.asarray(base) == 0.0) & (np.asarray(expo) < 0.0)):
                raise DomainError("zero raised to a negative power")
        try:
            return base ** expo
        except OverflowError:   # raised by float ** float; arrays give inf
            raise DomainError("power overflows") from None
    if isinstance(e, Call):
        arg = evaluate(e.arg, bindings)
        if e.fn == "sin":
            return np.sin(arg)
        if e.fn == "cos":
            return np.cos(arg)
        if e.fn == "exp":
            return np.exp(arg)
        if e.fn == "log":
            if np.any(np.asarray(arg) <= 0.0):
                raise DomainError("log of a non-positive argument")
            return np.log(arg)
        if e.fn == "sqrt":
            if np.any(np.asarray(arg) < 0.0):
                raise DomainError("sqrt of a negative argument")
            return np.sqrt(arg)
        if e.fn == "abs":
            return np.abs(arg)
    raise TypeError(f"not an expression node: {e!r}")


def free_variables(e: Expression) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Neg):
        return free_variables(e.arg)
    if isinstance(e, Call):
        return free_variables(e.arg)
    if isinstance(e, Pow):
        return free_variables(e.base) | free_variables(e.exponent)
    return free_variables(e.left) | free_variables(e.right)


# ---------------------------------------------------------------------------
# differentiation with light folding
# ---------------------------------------------------------------------------

def _is_num(e, value=None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def add(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0):
        return ZERO
    if _is_num(b, 1.0):
        return a
    return Div(a, b)


def neg(a: Expression) -> Expression:
    if _is_num(a, 0.0):
        return ZERO
    return Neg(a)


def power(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return ONE
    return Pow(a, b)


def differentiate(e: Expression, var: str) -> Expression:
    """Exact symbolic derivative with respect to `var`."""
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, var))
    if isinstance(e, Add):
        return add(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Sub):
        return sub(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Mul):
        return add(
            mul(differentiate(e.left, var), e.right),
            mul(e.left, differentiate(e.right, var)),
        )
    if isinstance(e, Div):
        return div(
            sub(
                mul(differentiate(e.left, var), e.right),
                mul(e.left, differentiate(e.right, var)),
            ),
            power(e.right, Num(2.0)),
        )
    if isinstance(e, Pow):
        dbase = differentiate(e.base, var)
        if isinstance(e.exponent, Num):
            c = e.exponent.value
            return mul(mul(e.exponent, power(e.base, Num(c - 1.0))), dbase)
        dexp = differentiate(e.exponent, var)
        # f^g = exp(g log f)
        return mul(
            Pow(e.base, e.exponent),
            add(mul(dexp, Call("log", e.base)), mul(e.exponent, div(dbase, e.base))),
        )
    if isinstance(e, Call):
        darg = differentiate(e.arg, var)
        if e.fn == "sin":
            return mul(Call("cos", e.arg), darg)
        if e.fn == "cos":
            return mul(neg(Call("sin", e.arg)), darg)
        if e.fn == "exp":
            return mul(Call("exp", e.arg), darg)
        if e.fn == "log":
            return div(darg, e.arg)
        if e.fn == "sqrt":
            return div(darg, mul(Num(2.0), Call("sqrt", e.arg)))
        if e.fn == "abs":
            return mul(div(e.arg, Call("abs", e.arg)), darg)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# printing (structural round-trip with parse)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expression) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Num) and e.value < 0.0:
        # prints with a leading '-', so treat like a negation
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(e: Expression, text: str, parent_prec: int, strict: bool) -> str:
    p = _prec(e)
    if p < parent_prec or (strict and p == parent_prec):
        return f"({text})"
    return text


def to_source(e: Expression) -> str:
    """Render so that parse(to_source(e)) is structurally identical to e.

    Structural round-trip holds for every tree whose literals are
    non-negative, which is everything `parse` can produce.  Negative
    literals (possible in derivative trees) re-parse as a negation of the
    positive literal: same value, one extra Neg node.
    """
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, to_source(e.arg), _PREC_NEG, strict=False)
    if isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        left = _wrap(e.left, to_source(e.left), _PREC_ADD, strict=False)
        right = _wrap(e.right, to_source(e.right), _PREC_ADD, strict=True)
        return left + op + right
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left = _wrap(e.left, to_source(e.left), _PREC_MUL, strict=False)
        right = _wrap(e.right, to_source(e.right), _PREC_MUL, strict=True)
        return left + op + right
    if isinstance(e, Pow):
        left = _wrap(e.base, to_source(e.base), _PREC_POW, strict=True)
        right = _wrap(e.exponent, to_source(e.exponent), _PREC_NEG, strict=False)
        return left + "^" + right
    raise TypeError(f"not an expression node: {e!r}")
