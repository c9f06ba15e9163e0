"""Operator tests: frozen analytic values, independent quadrature oracles,
and the structural properties (linearity, reflection, classical limits)."""

import math

import numpy as np
import pytest
import scipy.integrate

from fracnoether import (
    FractionalOrder,
    Grid,
    SampledPath,
    caputo_deriv_left,
    caputo_deriv_right,
    constant_path,
    rl_deriv_left,
    rl_deriv_right,
    rl_integral_right,
    sample_path,
)

GAMMA_HALF = math.sqrt(math.pi)          # gamma(0.5)
GAMMA_1_5 = 0.5 * math.sqrt(math.pi)     # gamma(1.5)
GAMMA_2_5 = 0.75 * math.sqrt(math.pi)    # gamma(2.5)
TWO_OVER_SQRT_PI = 1.1283791670955126    # caputo(t, 0.5) at t=1


# ---------------------------------------------------------------------------
# independent quadrature oracles (never touch the discrete schemes)
# ---------------------------------------------------------------------------

def caputo_left_quad(f_prime, a, t, alpha):
    """Adaptive quadrature of the left Caputo definition for 0 < alpha < 1."""
    if t == a:
        return 0.0
    val, _ = scipy.integrate.quad(f_prime, a, t, weight="alg", wvar=(0.0, -alpha))
    return val / math.gamma(1.0 - alpha)


def caputo_right_quad(f_prime, t, b, alpha):
    if t == b:
        return 0.0
    val, _ = scipy.integrate.quad(
        lambda x: -f_prime(x), t, b, weight="alg", wvar=(-alpha, 0.0)
    )
    return val / math.gamma(1.0 - alpha)


def rl_left_quad(f, a, t, alpha, dt=1e-5):
    """Central difference of the fractional integral: the raw definition."""

    def kernel_integral(s):
        val, _ = scipy.integrate.quad(f, a, s, weight="alg", wvar=(0.0, -alpha))
        return val / math.gamma(1.0 - alpha)

    return (kernel_integral(t + dt) - kernel_integral(t - dt)) / (2.0 * dt)


def integral_right_quad(f, t, b, beta):
    if t == b:
        return 0.0
    val, _ = scipy.integrate.quad(f, t, b, weight="alg", wvar=(beta - 1.0, 0.0))
    return val / math.gamma(beta)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_order_validation():
    assert FractionalOrder(1.0).is_classical
    assert not FractionalOrder(0.5).is_classical
    for bad in (0.0, -0.5, 1.0001, float("nan")):
        with pytest.raises(ValueError):
            FractionalOrder(bad)


def test_grid_validation():
    g = Grid(0.0, 2.0, 4)
    assert g.h == 0.5
    assert np.allclose(g.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.all(np.diff(g.nodes()) > 0)
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)


def test_path_validation():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SampledPath(g, np.zeros(3))
    with pytest.raises(ValueError):
        SampledPath(g, np.full(5, np.inf))
    p = SampledPath(g, np.arange(5.0))
    assert p.dim == 1
    with pytest.raises(ValueError):
        p.values[0] = 9.0  # frozen


# ---------------------------------------------------------------------------
# left Caputo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.25, 0.6, 1.0])
def test_caputo_left_constant_is_exactly_zero(alpha):
    g = Grid(0.0, 1.0, 32)
    out = caputo_deriv_left(constant_path(g, -4.25), alpha)
    assert np.all(out.values == 0.0)


def test_caputo_left_linear_power_rule():
    # the L1 scheme reproduces piecewise-linear paths exactly
    g = Grid(0.0, 1.0, 64)
    out = caputo_deriv_left(sample_path(g, lambda t: t), 0.5)
    t = g.nodes()
    exact = 2.0 * np.sqrt(t / math.pi)
    assert np.abs(out.values[:, 0] - exact).max() < 1e-12
    assert math.isclose(out.values[-1, 0], TWO_OVER_SQRT_PI, rel_tol=1e-12)


def test_caputo_left_classical_limit_quadratic():
    g = Grid(0.0, 1.0, 32)
    out = caputo_deriv_left(sample_path(g, lambda t: t**2), 1.0)
    assert np.abs(out.values[:, 0] - 2.0 * g.nodes()).max() < 1e-12


def test_caputo_left_matches_quadrature_oracle():
    alpha = 0.6
    g = Grid(0.0, 1.0, 256)
    out = caputo_deriv_left(sample_path(g, lambda t: t**2 + np.sin(t)), alpha)
    t = g.nodes()
    for j in (32, 100, 200, 256):
        ref = caputo_left_quad(lambda x: 2.0 * x + math.cos(x), 0.0, t[j], alpha)
        # L1 truncation is O(h^(2-alpha)) ~ 4e-4 here; allow a small multiple
        assert abs(out.values[j, 0] - ref) < 2e-3


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_caputo_left_convergence_order(alpha):
    errors = {}
    for n in (64, 1024):
        g = Grid(0.0, 1.0, n)
        out = caputo_deriv_left(sample_path(g, lambda t: t**2), alpha)
        exact = 2.0 * g.nodes() ** (2.0 - alpha) / math.gamma(3.0 - alpha)
        errors[n] = np.abs(out.values[:, 0] - exact).max()
    order = math.log(errors[64] / errors[1024]) / math.log(1024 / 64)
    assert order >= (2.0 - alpha) - 0.2


# ---------------------------------------------------------------------------
# right Caputo
# ---------------------------------------------------------------------------

def test_caputo_right_constant_is_exactly_zero():
    g = Grid(0.0, 1.0, 32)
    out = caputo_deriv_right(constant_path(g, 7.5), 0.3)
    assert np.all(out.values == 0.0)


def test_caputo_right_classical_is_minus_derivative():
    g = Grid(0.0, 1.0, 32)
    out = caputo_deriv_right(sample_path(g, lambda t: t), 1.0)
    assert np.abs(out.values + 1.0).max() < 1e-12


def test_caputo_right_reflected_power_rule():
    g = Grid(0.0, 1.0, 64)
    out = caputo_deriv_right(sample_path(g, lambda t: 1.0 - t), 0.5)
    exact = 2.0 * np.sqrt((1.0 - g.nodes()) / math.pi)
    assert np.abs(out.values[:, 0] - exact).max() < 1e-12


def test_caputo_right_matches_quadrature_oracle():
    alpha = 0.45
    g = Grid(0.0, 1.0, 256)
    out = caputo_deriv_right(sample_path(g, lambda t: np.cos(t)), alpha)
    t = g.nodes()
    for j in (0, 64, 180):
        ref = caputo_right_quad(lambda x: -math.sin(x), t[j], 1.0, alpha)
        assert abs(out.values[j, 0] - ref) < 2e-3


# ---------------------------------------------------------------------------
# Riemann-Liouville derivatives
# ---------------------------------------------------------------------------

def test_rl_left_of_constant():
    g = Grid(0.0, 1.0, 64)
    out = rl_deriv_left(constant_path(g, 1.0), 0.5)
    t = g.nodes()
    assert bool(out.singular[0])
    assert not out.singular[1:].any()
    exact = 1.0 / np.sqrt(math.pi * t[1:])
    assert np.abs(out.values[1:, 0] - exact).max() < 1e-12


def test_rl_left_equals_caputo_when_start_value_vanishes():
    g = Grid(0.0, 1.0, 48)
    f = sample_path(g, lambda t: np.sin(3.0 * t))
    rl = rl_deriv_left(f, 0.7)
    cap = caputo_deriv_left(f, 0.7)
    assert np.array_equal(rl.values, cap.values)
    assert not rl.singular.any()


def test_rl_left_classical():
    g = Grid(0.0, 1.0, 32)
    out = rl_deriv_left(sample_path(g, lambda t: t), 1.0)
    assert np.abs(out.values - 1.0).max() < 1e-12
    assert not out.singular.any()


def test_rl_left_matches_direct_quadrature_of_definition():
    alpha = 0.4
    g = Grid(0.0, 1.0, 256)
    f = sample_path(g, lambda t: np.exp(t))
    out = rl_deriv_left(f, alpha)
    t = g.nodes()
    for j in (64, 128, 224):
        ref = rl_left_quad(math.exp, 0.0, t[j], alpha)
        assert abs(out.values[j, 0] - ref) < 2e-3


def test_rl_caputo_identity():
    # rl - caputo == f(a) (t-a)^(-alpha)/gamma(1-alpha), exactly as built
    alpha = 0.35
    g = Grid(0.5, 2.0, 64)
    f = sample_path(g, lambda t: np.cos(t) + 2.0)
    rl = rl_deriv_left(f, alpha)
    cap = caputo_deriv_left(f, alpha)
    t = g.nodes()[1:]
    term = f.values[0, 0] * (t - 0.5) ** (-alpha) / math.gamma(1.0 - alpha)
    diff = rl.values[1:, 0] - cap.values[1:, 0]
    assert np.abs(diff - term).max() < 1e-12 * np.abs(term).max()


def test_rl_right_of_constant():
    g = Grid(0.0, 1.0, 64)
    out = rl_deriv_right(constant_path(g, 1.0), 0.5)
    t = g.nodes()
    assert bool(out.singular[-1])
    exact = 1.0 / np.sqrt(math.pi * (1.0 - t[:-1]))
    assert np.abs(out.values[:-1, 0] - exact).max() < 1e-12


def test_rl_right_equals_caputo_when_end_value_vanishes():
    g = Grid(0.0, 1.0, 48)
    f = sample_path(g, lambda t: 1.0 - t)
    rl = rl_deriv_right(f, 0.6)
    cap = caputo_deriv_right(f, 0.6)
    assert np.array_equal(rl.values, cap.values)
    assert not rl.singular.any()


def test_rl_right_classical_constant_is_zero():
    g = Grid(0.0, 1.0, 32)
    out = rl_deriv_right(constant_path(g, 5.0), 1.0)
    assert np.all(out.values == 0.0)


# ---------------------------------------------------------------------------
# right fractional integral
# ---------------------------------------------------------------------------

def test_integral_right_zero_input():
    g = Grid(0.0, 1.0, 16)
    out = rl_integral_right(constant_path(g, 0.0), 0.5)
    assert np.all(out.values == 0.0)


def test_integral_right_order_one_is_plain_integral():
    g = Grid(0.0, 1.0, 64)
    out = rl_integral_right(constant_path(g, 1.0), 1.0)
    assert np.abs(out.values[:, 0] - (1.0 - g.nodes())).max() < 1e-13


def test_integral_right_half_order_closed_form():
    g = Grid(0.0, 1.0, 64)
    out = rl_integral_right(constant_path(g, 1.0), 0.5)
    exact = np.sqrt(1.0 - g.nodes()) / GAMMA_1_5
    assert np.abs(out.values[:, 0] - exact).max() < 1e-12


def test_integral_right_order_zero_is_identity():
    g = Grid(0.0, 1.0, 16)
    f = sample_path(g, lambda t: np.sin(t))
    out = rl_integral_right(f, 0.0)
    assert np.array_equal(out.values, f.values)


def test_integral_right_matches_quadrature_oracle():
    beta = 0.3
    g = Grid(0.0, 1.0, 128)
    f = sample_path(g, lambda t: np.sin(2.0 * t))
    out = rl_integral_right(f, beta)
    t = g.nodes()
    for j in (0, 40, 100):
        ref = integral_right_quad(lambda x: math.sin(2.0 * x), t[j], 1.0, beta)
        # product integration is second order: h^2 |f''| scale ~ 2.5e-4
        assert abs(out.values[j, 0] - ref) < 5e-4


def test_integral_right_rejects_bad_order():
    g = Grid(0.0, 1.0, 16)
    f = constant_path(g, 1.0)
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            rl_integral_right(f, bad)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

OPS = [
    lambda f: caputo_deriv_left(f, 0.5),
    lambda f: caputo_deriv_right(f, 0.5),
    lambda f: rl_deriv_left(f, 0.5),
    lambda f: rl_deriv_right(f, 0.5),
    lambda f: caputo_deriv_left(f, 1.0),
    lambda f: caputo_deriv_right(f, 1.0),
    lambda f: rl_integral_right(f, 0.5),
]


@pytest.mark.parametrize("op_index", range(len(OPS)))
def test_linearity(op_index, rng):
    op = OPS[op_index]
    g = Grid(0.0, 1.0, 40)
    f1 = SampledPath(g, rng.normal(size=(41, 2)))
    f2 = SampledPath(g, rng.normal(size=(41, 2)))
    c1, c2 = 1.7, -0.4
    combo = SampledPath(g, c1 * f1.values + c2 * f2.values)
    lhs = op(combo).values
    rhs = c1 * op(f1).values + c2 * op(f2).values
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() < 1e-12 * scale


@pytest.mark.parametrize("alpha", [0.3, 0.75])
def test_reflection_symmetry(alpha, rng):
    # right operators equal left operators applied to the reflected path
    g = Grid(0.0, 1.0, 50)
    vals = rng.normal(size=51)
    f = SampledPath(g, vals)
    reflected = SampledPath(g, vals[::-1])
    right = caputo_deriv_right(f, alpha).values[:, 0]
    left_reflected = caputo_deriv_left(reflected, alpha).values[::-1, 0]
    np.testing.assert_allclose(right, left_reflected, rtol=1e-13, atol=1e-15)

    rl_r = rl_deriv_right(f, alpha)
    rl_l = rl_deriv_left(reflected, alpha)
    np.testing.assert_allclose(
        rl_r.values[:, 0], rl_l.values[::-1, 0], rtol=1e-13, atol=1e-15
    )
    assert np.array_equal(rl_r.singular, rl_l.singular[::-1])


def test_classical_limits_match_independent_stencils():
    g = Grid(0.0, 1.0, 64)
    t = g.nodes()
    h = g.h
    vals = np.sin(3.0 * t)
    f = SampledPath(g, vals)
    # independent second-order stencil computation
    ref = np.empty_like(vals)
    ref[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    ref[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    ref[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
    for op, sign in (
        (caputo_deriv_left, 1.0),
        (rl_deriv_left, 1.0),
        (caputo_deriv_right, -1.0),
        (rl_deriv_right, -1.0),
    ):
        out = op(f, 1.0).values[:, 0]
        assert np.abs(out - sign * ref).max() < 1e-10


def _dense_classical_stencil(n):
    """S with f' ~= (S @ diff(f)) / h, filled entry by entry."""
    s = np.zeros((n + 1, n))
    s[0, 0], s[0, 1] = 1.5, -0.5
    for j in range(1, n):
        s[j, j - 1] = 0.5
        s[j, j] = 0.5
    s[n, n - 1], s[n, n - 2] = 1.5, -0.5
    return s


@pytest.mark.parametrize("n", [2, 3, 257])
@pytest.mark.parametrize("dim", [1, 3])
def test_classical_stencil_matches_dense_oracle(rng, n, dim):
    g = Grid(0.0, 1.0, n)
    vals = rng.normal(size=(n + 1, dim))
    dense = _dense_classical_stencil(n) @ np.diff(vals, axis=0)
    for op, ref in (
        (caputo_deriv_left, dense / g.h),
        (caputo_deriv_right, -dense / g.h),
    ):
        out = op(SampledPath(g, vals), 1.0).values
        assert np.array_equal(out[1:-1], ref[1:-1])
        # the dense product may fuse the one-sided ends into FMAs
        np.testing.assert_allclose(out[[0, -1]], ref[[0, -1]], rtol=1e-15, atol=0.0)


def test_vector_paths_componentwise(rng):
    # matrix vs single-column BLAS kernels may differ in the last ulp
    g = Grid(0.0, 1.0, 30)
    vals = rng.normal(size=(31, 3))
    f = SampledPath(g, vals)
    out = caputo_deriv_left(f, 0.6)
    for i in range(3):
        single = caputo_deriv_left(SampledPath(g, vals[:, i]), 0.6)
        np.testing.assert_allclose(
            out.values[:, i], single.values[:, 0], rtol=1e-13, atol=1e-13
        )


def test_grid_mismatch_rejected():
    from fracnoether import frac_bracket

    f = constant_path(Grid(0.0, 1.0, 16), 1.0)
    g = constant_path(Grid(0.0, 1.0, 32), 1.0)
    with pytest.raises(ValueError):
        frac_bracket(f, g, 0.5)
