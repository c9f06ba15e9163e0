"""Grammar, evaluation, differentiation and round-trip tests, including the
randomized derivative-vs-central-difference check."""

import math
import random

import numpy as np
import pytest

from fracnoether import expr
from fracnoether.expr import (
    Add, Call, Div, DomainError, MissingBindingError, Mul, Neg, Num, ParseError,
    Pow, Sub, UnknownIdentifierError, Var,
)

VARS = ("t", "q1", "u1", "p1")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_power_quotient():
    e = expr.parse("u1^2/2", VARS)
    assert e == Div(Pow(Var("u1"), Num(2.0)), Num(2.0))


def test_parse_product():
    e = expr.parse("p1*(q1+u1)", VARS)
    assert e == Mul(Var("p1"), Add(Var("q1"), Var("u1")))


def test_unknown_identifier_named():
    with pytest.raises(UnknownIdentifierError) as exc:
        expr.parse("q2", ("t", "q1"))
    assert exc.value.name == "q2"
    assert exc.value.offset == 0


def test_syntax_error_offset():
    with pytest.raises(ParseError) as exc:
        expr.parse("1 + * 2", VARS)
    assert exc.value.offset == 4


def test_unexpected_character_offset():
    with pytest.raises(ParseError) as exc:
        expr.parse("t + $", VARS)
    assert exc.value.offset == 4


def test_left_associativity():
    assert expr.parse("t - q1 - u1", VARS) == Sub(Sub(Var("t"), Var("q1")), Var("u1"))
    assert expr.parse("t / q1 / u1", VARS) == Div(Div(Var("t"), Var("q1")), Var("u1"))


def test_power_right_associative_and_tighter_than_negation():
    assert expr.parse("t^q1^u1", VARS) == Pow(Var("t"), Pow(Var("q1"), Var("u1")))
    assert expr.parse("-t^2", VARS) == Neg(Pow(Var("t"), Num(2.0)))
    assert expr.parse("t^-2", VARS) == Pow(Var("t"), Neg(Num(2.0)))


def test_whitespace_insignificant():
    assert expr.parse(" t +q1* u1 ", VARS) == expr.parse("t+q1*u1", VARS)


def test_function_calls():
    assert expr.parse("sin(t)", VARS) == Call("sin", Var("t"))
    with pytest.raises(ParseError):
        expr.parse("sinh(t)", VARS)   # unknown function
    with pytest.raises(ParseError):
        expr.parse("sin + 1", VARS)   # function without argument list


def test_scientific_literals():
    assert expr.parse("1e-3", VARS) == Num(1e-3)
    assert expr.parse("2.5E+2", VARS) == Num(250.0)
    assert expr.parse(".5", VARS) == Num(0.5)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        expr.parse("t + 1)", VARS)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_examples():
    assert expr.evaluate(expr.parse("u1^2/2", VARS), {"u1": 2.0}) == 2.0
    assert expr.evaluate(expr.parse("sin(t)", VARS), {"t": 0.0}) == 0.0


def test_division_by_zero_raises():
    with pytest.raises(DomainError):
        expr.evaluate(expr.parse("1/q1", VARS), {"q1": 0.0})


@pytest.mark.parametrize("den", [
    0.0, -0.0, np.float64(0.0), np.float64(-0.0), 0,
    np.array([1.0, 0.0, 2.0]), np.array([-0.0, 3.0]), np.array([[2.0], [0.0]]),
], ids=["float", "-float", "float64", "-float64", "int", "array", "-array", "2d"])
def test_scalar_and_array_zero_divisors_raise_the_same_error(den):
    e = expr.parse("t/q1", VARS)
    for num in (1.0, np.array([1.0, 2.0, 3.0])[:np.size(den)].reshape(np.shape(den))):
        with pytest.raises(DomainError) as err:
            expr.evaluate(e, {"t": num, "q1": den})
        assert str(err.value) == "division by zero"


@pytest.mark.parametrize("den", [2.0, np.float64(-0.5), 3, np.array([1.0, -2.0]), np.nan])
def test_non_zero_divisors_divide(den):
    out = expr.evaluate(expr.parse("1/q1", VARS), {"q1": den})
    np.testing.assert_array_equal(out, 1.0 / np.asarray(den, dtype=float))


def test_log_sqrt_domain_errors():
    with pytest.raises(DomainError):
        expr.evaluate(expr.parse("log(t)", VARS), {"t": -1.0})
    with pytest.raises(DomainError):
        expr.evaluate(expr.parse("log(t)", VARS), {"t": 0.0})
    with pytest.raises(DomainError):
        expr.evaluate(expr.parse("sqrt(t)", VARS), {"t": -4.0})


def test_negative_base_power_rules():
    assert expr.evaluate(expr.parse("t^2", VARS), {"t": -3.0}) == 9.0
    assert expr.evaluate(expr.parse("t^3", VARS), {"t": -2.0}) == -8.0
    with pytest.raises(DomainError):
        expr.evaluate(expr.parse("t^0.5", VARS), {"t": -1.0})
    with pytest.raises(DomainError):
        expr.evaluate(expr.parse("t^-1", VARS), {"t": 0.0})
    t = np.linspace(-3.0, 0.0, 97)
    for src, k in (("t^2", 2.0), ("t^3", 3.0), ("t^0", 0.0)):
        out = expr.evaluate(expr.parse(src, VARS), {"t": t})
        assert np.array_equal(out.view(np.uint64), (t ** k).view(np.uint64))
    with pytest.raises(DomainError):
        expr.evaluate(expr.parse("t^0.5", VARS), {"t": t})
    with pytest.raises(DomainError):
        expr.evaluate(expr.parse("t^-1", VARS), {"t": t})
    assert expr.evaluate(expr.parse("0^0", VARS), {}) == 1.0
    # an infinite exponent is not integral and takes the checked path
    assert expr.evaluate(expr.parse("t^q1", VARS), {"t": 2.0, "q1": math.inf}) == math.inf


def test_missing_binding_named():
    with pytest.raises(MissingBindingError) as exc:
        expr.evaluate(expr.parse("q1 + u1", VARS), {"q1": 1.0})
    assert exc.value.name == "u1"


def test_vectorized_evaluation():
    e = expr.parse("q1^2 + sin(t)", VARS)
    t = np.linspace(0.0, 1.0, 5)
    q = np.linspace(-1.0, 1.0, 5)
    out = expr.evaluate(e, {"t": t, "q1": q})
    assert np.allclose(out, q**2 + np.sin(t))


def test_vectorized_domain_error():
    e = expr.parse("sqrt(q1)", VARS)
    with pytest.raises(DomainError):
        expr.evaluate(e, {"q1": np.array([1.0, -0.1])})


def test_free_variables():
    e = expr.parse("p1*(q1+u1) + sin(t)", VARS)
    assert expr.free_variables(e) == frozenset({"p1", "q1", "u1", "t"})


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def _check_derivative(source, var, points):
    e = expr.parse(source, VARS)
    d = expr.differentiate(e, var)
    for point in points:
        sym = expr.evaluate(d, point)
        h = 1e-6
        hi = dict(point)
        lo = dict(point)
        hi[var] = point[var] + h
        lo[var] = point[var] - h
        fd = (expr.evaluate(e, hi) - expr.evaluate(e, lo)) / (2.0 * h)
        assert math.isclose(sym, fd, rel_tol=1e-6, abs_tol=1e-8)


def test_derivative_examples():
    d = expr.differentiate(expr.parse("u1^2/2", VARS), "u1")
    assert expr.evaluate(d, {"u1": 3.0}) == 3.0
    d = expr.differentiate(expr.parse("p1*(q1+u1)", VARS), "q1")
    assert d == Var("p1")
    d = expr.differentiate(expr.parse("sin(t)*u1", VARS), "q1")
    assert d == Num(0.0)


def test_derivative_chain_rules():
    pts = [{"t": 0.4, "q1": 1.2, "u1": -0.7, "p1": 0.3}]
    for source, var in [
        ("sin(q1^2)", "q1"),
        ("exp(u1*t)", "u1"),
        ("log(q1^2 + 1)", "q1"),
        ("sqrt(q1^2 + 4)", "q1"),
        ("abs(u1)", "u1"),
        ("q1^u1", "q1"),
        ("q1^u1", "u1"),
        ("cos(t)/(q1 + 2)", "q1"),
    ]:
        _check_derivative(source, var, pts)


def test_repeated_differentiation():
    e = expr.parse("q1^3", VARS)
    d2 = expr.differentiate(expr.differentiate(e, "q1"), "q1")
    assert expr.evaluate(d2, {"q1": 2.0}) == 12.0


def test_derivative_is_linear(rng):
    e1 = expr.parse("sin(q1)*q1", VARS)
    e2 = expr.parse("exp(q1/2)", VARS)
    a, b = 2.5, -1.25
    combo = Add(Mul(Num(a), e1), Mul(Num(b), e2))
    d_combo = expr.differentiate(combo, "q1")
    d1 = expr.differentiate(e1, "q1")
    d2 = expr.differentiate(e2, "q1")
    for _ in range(20):
        x = float(rng.uniform(-2.0, 2.0))
        lhs = expr.evaluate(d_combo, {"q1": x})
        rhs = a * expr.evaluate(d1, {"q1": x}) + b * expr.evaluate(d2, {"q1": x})
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# printing round-trip
# ---------------------------------------------------------------------------

def test_round_trip_handcrafted():
    sources = [
        "u1^2/2",
        "p1*(q1+u1)",
        "-(q1 + u1)*t",
        "t - (q1 - u1)",
        "t^q1^2",
        "(t^q1)^2",
        "1/(1 + q1^2)",
        "sin(cos(exp(t)))",
        "t*-q1",
        "--t",
        "2e-3*t + .5",
        "abs(q1) - sqrt(u1^2 + 1)",
    ]
    for source in sources:
        e = expr.parse(source, VARS)
        assert expr.parse(expr.to_source(e), VARS) == e


# ---------------------------------------------------------------------------
# random AST machinery (shared with the acceptance suite)
# ---------------------------------------------------------------------------

def random_expression(rnd: random.Random, depth: int = 0):
    """Random tree over the full grammar, biased toward smooth shapes.
    Literal signs come from Neg nodes, matching what `parse` can build."""
    if depth >= 4 or rnd.random() < 0.3:
        if rnd.random() < 0.4:
            lit = Num(round(rnd.uniform(0.0, 3.0), 2))
            return Neg(lit) if rnd.random() < 0.25 else lit
        return Var(rnd.choice(VARS))
    kind = rnd.choice(
        ["add", "sub", "mul", "div", "pow", "neg", "sin", "cos", "exp", "log",
         "sqrt", "abs"]
    )
    a = random_expression(rnd, depth + 1)
    if kind == "add":
        return Add(a, random_expression(rnd, depth + 1))
    if kind == "sub":
        return Sub(a, random_expression(rnd, depth + 1))
    if kind == "mul":
        return Mul(a, random_expression(rnd, depth + 1))
    if kind == "div":
        return Div(a, random_expression(rnd, depth + 1))
    if kind == "pow":
        return Pow(a, Num(float(rnd.choice([2, 3]))))
    if kind == "neg":
        return Neg(a)
    return Call(kind, a)


def random_binding(rnd: random.Random):
    return {name: rnd.uniform(0.3, 1.7) for name in VARS}


def derivative_matches_central_difference(e, var, point, rel_tol=1e-6):
    """None when the sample is degenerate, else the boolean verdict."""
    d = expr.differentiate(e, var)
    h = 1e-6
    hi = dict(point)
    lo = dict(point)
    hi[var] = point[var] + h
    lo[var] = point[var] - h
    try:
        sym = expr.evaluate(d, point)
        f_hi = expr.evaluate(e, hi)
        f_lo = expr.evaluate(e, lo)
    except DomainError:
        return None
    fd = (f_hi - f_lo) / (2.0 * h)
    if not all(math.isfinite(v) for v in (sym, fd, f_hi, f_lo)):
        return None
    if max(abs(f_hi), abs(f_lo), abs(sym)) > 1e6:
        return None  # wild magnitudes make the FD stencil meaningless
    return math.isclose(sym, fd, rel_tol=rel_tol, abs_tol=1e-6)


def test_random_derivatives_against_central_differences():
    rnd = random.Random(1234)
    checked = 0
    while checked < 200:
        e = random_expression(rnd)
        var = rnd.choice(VARS)
        verdict = derivative_matches_central_difference(e, var, random_binding(rnd))
        if verdict is None:
            continue
        assert verdict, f"derivative mismatch for {expr.to_source(e)} d/d{var}"
        checked += 1


def test_random_round_trip():
    rnd = random.Random(99)
    for _ in range(300):
        e = random_expression(rnd)
        assert expr.parse(expr.to_source(e), VARS) == e
