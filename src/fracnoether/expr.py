"""Scalar arithmetic expressions: parsing, evaluation, differentiation.

Grammar (whitespace insignificant), from the loosest binding to the
tightest: '+' '-', then '*' '/' (both left associative), unary '-', '^'
(right associative, with a negation allowed as its exponent: 2^-3) and

    atom  :=  NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

One loop parses it (`_Parser.expr`, Pratt's top-down operator
precedence): an optional '-', an atom, then each binary operator that
binds tightly enough.  `_BINARY` holds one entry per binary operator,
read by that loop, `_prec` and `to_source`: its token, its precedence,
and the least precedence a left and a right operand need to print
without parentheses, which is also the precedence the loop parses a
right operand at.  Known functions: sin, cos, exp, log, sqrt, abs; a
function is one `_FUNCTIONS` entry, giving its numpy op, domain rule and
derivative.  Variable names must be declared by the caller; anything
else is rejected at parse time.

The loop refuses a tree deeper than MAX_DEPTH = 100 levels (a node is
one level deeper than its deepest child; parentheses add none), and
parentheses nested deeper than that, with "expression nests deeper than
100 levels".  Evaluation and differentiation recurse once per level, and
the solver evaluates second partials, which are deeper than their tree.
At depth 100 the second partial of the worst shape, a division chain, is
593 levels deep (a power chain: 498, a product: 296).  With at most 100
more from the Hamiltonian's chain over the states (`cli.parse_config`
caps n at MAX_DEPTH), that stays inside Python's default limit of 1,000
frames.

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
from typing import Callable, NamedTuple

import numpy as np


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
    left: "Expression"    # the base
    right: "Expression"   # the exponent


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Num | Var | Neg | Add | Sub | Mul | Div | Pow | Call

ZERO = Num(0.0)
ONE = Num(1.0)

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


class _Operator(NamedTuple):
    token: str
    prec: int    # how tightly it binds
    left: int    # the least precedence of a left operand printed bare
    right: int   # the same for a right operand, which is parsed at it


# the binary operators, read by the parser, `_prec` and `to_source`; '^'
# is right-associative and takes a negation as its right operand
_BINARY = {Add: _Operator("+", _PREC_ADD, _PREC_ADD, _PREC_MUL),
           Sub: _Operator("-", _PREC_ADD, _PREC_ADD, _PREC_MUL),
           Mul: _Operator("*", _PREC_MUL, _PREC_MUL, _PREC_NEG),
           Div: _Operator("/", _PREC_MUL, _PREC_MUL, _PREC_NEG),
           Pow: _Operator("^", _PREC_POW, _PREC_ATOM, _PREC_NEG)}
_BINARY_BY_TOKEN = {op.token: cls for cls, op in _BINARY.items()}

# the deepest tree, and the deepest nesting of parentheses, that `parse`
# accepts (see the module docstring)
MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


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
            raise ParseError(f"unexpected character {stripped[0]!r}", _byte_offset(source, bad_at))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), _byte_offset(source, m.start(kind))))
        pos = m.end()
    tokens.append(("end", "", _byte_offset(source, n)))
    return tokens


class _Parser:
    def __init__(self, source: str, variables):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.variables = frozenset(variables)
        self.open = 0   # parentheses open around the current token

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

    def expr(self, min_prec: int = _PREC_ADD, room: int = MAX_DEPTH) -> tuple[Expression, int]:
        """An optional '-', an atom, then each operator binding at least
        `min_prec`; return the tree and its depth, which may not pass
        `room` (the levels left below the operators still open)."""
        _, text, offset = self.peek()   # no number or name reads like an operator
        if room < 1:
            raise ParseError(_TOO_DEEP, offset)
        if text == "-":
            self.advance()
            arg, depth = self.expr(_PREC_NEG, room - 1)
            node, depth = Neg(arg), depth + 1
        else:
            node, depth = self.atom(room)
        while True:
            _, text, offset = self.peek()
            cls = _BINARY_BY_TOKEN.get(text)
            if cls is None or _BINARY[cls].prec < min_prec:
                return node, depth
            self.advance()
            right, right_depth = self.expr(_BINARY[cls].right, room - 1)
            node, depth = cls(node, right), max(depth, right_depth) + 1
            if depth > room:
                raise ParseError(_TOO_DEEP, offset)

    def atom(self, room: int) -> tuple[Expression, int]:
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text)), 1
        if kind == "name":
            nk, ntext, _ = self.peek()
            if nk == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{text}'", offset)
                self.advance()
                arg, depth = self.expr(_PREC_ADD, room - 1)
                self.expect_op(")")
                return Call(text, arg), depth + 1
            if text in FUNCTIONS:
                raise ParseError(f"function '{text}' needs an argument list", offset)
            if text not in self.variables:
                raise UnknownIdentifierError(text, offset)
            return Var(text), 1
        if kind == "op" and text == "(":
            # parentheses add no level to the tree, but nest the parser
            self.open += 1
            if self.open > MAX_DEPTH:
                raise ParseError(_TOO_DEEP, offset)
            inner = self.expr(_PREC_ADD, room)
            self.expect_op(")")
            self.open -= 1
            return inner
        raise ParseError("expected a number, variable, function call or '('", offset)


def parse(source: str, variables) -> Expression:
    """Parse `source` against the declared variable names."""
    parser = _Parser(source, variables)
    e, _ = parser.expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", offset)
    return e


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
        base = evaluate(e.left, bindings)
        expo = evaluate(e.right, bindings)
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
        fn = _FUNCTIONS[e.fn]
        if fn.outside is not None and fn.outside(arg):
            raise DomainError(fn.message)
        return fn.op(arg)
    raise TypeError(f"not an expression node: {e!r}")


def free_variables(e: Expression) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, (Neg, Call)):
        return free_variables(e.arg)
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


class _Function(NamedTuple):
    op: Callable                  # the numpy ufunc that evaluates it
    derivative: Callable          # (arg, d arg) -> the tree of d f(arg)
    outside: Callable | None = None   # arg -> True when it leaves the domain
    message: str = ""             # the DomainError message of `outside`


_FUNCTIONS = {
    "sin": _Function(np.sin, lambda a, da: mul(Call("cos", a), da)),
    "cos": _Function(np.cos, lambda a, da: mul(neg(Call("sin", a)), da)),
    "exp": _Function(np.exp, lambda a, da: mul(Call("exp", a), da)),
    "log": _Function(np.log, lambda a, da: div(da, a),
                     lambda a: np.any(np.asarray(a) <= 0.0),
                     "log of a non-positive argument"),
    "sqrt": _Function(np.sqrt, lambda a, da: div(da, mul(Num(2.0), Call("sqrt", a))),
                      lambda a: np.any(np.asarray(a) < 0.0),
                      "sqrt of a negative argument"),
    "abs": _Function(np.abs, lambda a, da: mul(div(a, Call("abs", a)), da)),
}
FUNCTIONS = tuple(_FUNCTIONS)


def differentiate(e: Expression, var: str) -> Expression:
    """Exact symbolic derivative with respect to `var`."""
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, var))
    if isinstance(e, Call):
        return _FUNCTIONS[e.fn].derivative(e.arg, differentiate(e.arg, var))
    if type(e) not in _BINARY:
        raise TypeError(f"not an expression node: {e!r}")
    a, b = e.left, e.right
    da, db = differentiate(a, var), differentiate(b, var)
    if isinstance(e, Add):
        return add(da, db)
    if isinstance(e, Sub):
        return sub(da, db)
    if isinstance(e, Mul):
        return add(mul(da, b), mul(a, db))
    if isinstance(e, Div):
        return div(sub(mul(da, b), mul(a, db)), power(b, Num(2.0)))
    if isinstance(b, Num):
        return mul(mul(b, power(a, Num(b.value - 1.0))), da)
    # f^g = exp(g log f)
    return mul(e, add(mul(db, Call("log", a)), mul(b, div(da, a))))


# ---------------------------------------------------------------------------
# printing (structural round-trip with parse)
# ---------------------------------------------------------------------------

def _prec(e: Expression) -> int:
    binary = _BINARY.get(type(e))
    if binary is not None:
        return binary.prec
    if isinstance(e, Neg) or (isinstance(e, Num) and e.value < 0.0):
        # a negative literal prints with a leading '-', like a negation
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(e: Expression, text: str, least: int) -> str:
    return f"({text})" if _prec(e) < least else text


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
        return "-" + _wrap(e.arg, to_source(e.arg), _PREC_NEG)
    binary = _BINARY.get(type(e))
    if binary is not None:
        # '+' and '-' print with a space on each side
        token = f" {binary.token} " if binary.prec == _PREC_ADD else binary.token
        return (_wrap(e.left, to_source(e.left), binary.left) + token
                + _wrap(e.right, to_source(e.right), binary.right))
    raise TypeError(f"not an expression node: {e!r}")
