import numpy as np
import pytest

from fracnoether import FractionalOrder, Grid, ProblemSpec
from fracnoether import expr

VARS1 = ("t", "q1", "u1", "p1")


def scalar_spec(alpha, lagrangian, dynamics, q_start, q_end, a=0.0, b=1.0):
    """One-state one-control problem from expression sources."""
    return ProblemSpec(
        order=FractionalOrder(alpha),
        a=a,
        b=b,
        n=1,
        m=1,
        lagrangian=expr.parse(lagrangian, VARS1),
        dynamics=(expr.parse(dynamics, VARS1),),
        q_start=(q_start,),
        q_end=(q_end,),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def assert_bitwise(actual, expected):
    """Equal shapes, dtypes and values, NaN where NaN, and equal signs, so
    -0.0 and +0.0 differ."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=actual.dtype.kind == "f")
    assert np.array_equal(np.signbit(actual), np.signbit(expected))
