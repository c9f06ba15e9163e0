"""Operator tests: frozen analytic values, independent quadrature oracles,
and the structural properties (linearity, reflection, classical limits)."""

import math
from math import gamma
import tracemalloc

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
from fracnoether.fracops import (
    _apply_caputo_left,
    _apply_caputo_right,
    _apply_integral_right,
    _apply_rl_right,
    _caputo_left_of,
    _convolve,
    _integral_end_weights,
    _kernel,
    _right_boundary_kernel,
    _rl_right_of,
)

from conftest import assert_bitwise

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
    # values need to be finite at unflagged nodes only
    vals = np.column_stack([np.arange(5.0), np.ones(5)])
    vals[-1, 0] = np.inf
    at_end = np.array([False, False, False, False, True])
    p = SampledPath(g, vals, at_end)
    assert np.isinf(p.values[-1, 0])
    with pytest.raises(ValueError):
        SampledPath(g, vals)
    with pytest.raises(ValueError):
        SampledPath(g, vals, at_end[::-1])
    vals[2, 1] = np.nan
    with pytest.raises(ValueError):
        SampledPath(g, vals, at_end)


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


def _dense_l1(n, alpha):
    """Lower-triangular T[i, k] = b_{i-k}, b_i = (i+1)^(1-alpha) - i^(1-alpha),
    filled row by row; left Caputo = h^-alpha / gamma(2-alpha) T diff(f)."""
    i = np.arange(n, dtype=float)
    b = (i + 1.0) ** (1.0 - alpha) - i ** (1.0 - alpha)
    t = np.zeros((n, n))
    for row in range(n):
        t[row, :row + 1] = b[row::-1]
    return t


def _dense_integral(n, beta):
    """A[j, k], the weight of f_k in the right integral of order beta at
    node j before the factor h^beta / gamma(beta), filled row by row:
    each interval [t_{j+l}, t_{j+l+1}] gives w1_l to its left end and w2_l
    to its right one.  The weights cancel badly for small beta, so they
    are computed with the same vector arithmetic as the library."""
    r = np.arange(n, dtype=float)
    m0 = ((r + 1.0) ** beta - r ** beta) / beta
    w2 = ((r + 1.0) ** (beta + 1.0) - r ** (beta + 1.0)) / (beta + 1.0) - r * m0
    w1 = m0 - w2
    a = np.zeros((n + 1, n + 1))
    for j in range(n):
        a[j, j:n] += w1[:n - j]
        a[j, j + 1:] += w2[:n - j]
    return a


def _assert_close_to_dense(out, ref):
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [2, 3, 17, 257, 1000])
@pytest.mark.parametrize("dim", [1, 3])
def test_fft_applies_match_dense_oracle(rng, n, dim):
    g = Grid(0.0, 1.7, n)
    f = rng.normal(size=(n + 1, dim))
    d = np.diff(f, axis=0)
    for alpha in (0.1, 0.5, 0.75, 0.999):
        t = _dense_l1(n, alpha)
        c = g.h ** (-alpha) / math.gamma(2.0 - alpha)
        left = np.zeros_like(f)
        left[1:] = c * (t @ d)
        right = np.zeros_like(f)
        right[:-1] = -c * (t @ d[::-1])[::-1]
        _assert_close_to_dense(_apply_caputo_left(f, g, alpha), left)
        _assert_close_to_dense(_apply_caputo_right(f, g, alpha), right)
        kernel = np.zeros(n + 1)
        kernel[:-1] = (g.b - g.nodes()[:-1]) ** (-alpha) / math.gamma(1.0 - alpha)
        _assert_close_to_dense(_apply_rl_right(f, g, alpha), right + kernel[:, None] * f[-1])
    for beta in (0.001, 0.5, 1.0):
        a = _dense_integral(n, beta)
        scale = g.h ** beta / math.gamma(beta)
        _assert_close_to_dense(_apply_integral_right(f, g, beta), scale * (a @ f))
        # row N-1 holds two non-zeros, on f_{N-1} and f_N
        assert not np.any(a[n - 1, :n - 1])
        np.testing.assert_allclose(
            _integral_end_weights(g, beta), scale * a[n - 1, n - 1:], rtol=1e-15, atol=0.0
        )


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.999])
def test_fft_applies_constant_column_beside_varying_is_zero(rng, alpha):
    g = Grid(0.0, 1.0, 100)
    f = np.column_stack([np.full(101, 2.75), rng.normal(size=101), np.full(101, -1e3)])
    for op in (_apply_caputo_left, _apply_caputo_right):
        out = op(f, g, alpha)
        assert np.all(out[:, [0, 2]] == 0.0)
        assert np.any(out[:, 1] != 0.0)
    # the right RL derivative of a constant is its boundary term alone
    kernel = (g.b - g.nodes()[:-1]) ** (-alpha) / math.gamma(1.0 - alpha)
    assert np.array_equal(_apply_rl_right(f, g, alpha)[:-1, 0], kernel * 2.75)
    zero = f.copy()
    zero[:, 0] = 0.0
    assert np.all(_apply_integral_right(zero, g, 1.0 - alpha)[:, 0] == 0.0)


# ---------------------------------------------------------------------------
# exact fast paths: bitwise what the transform path computes
# ---------------------------------------------------------------------------

def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _transformed_caputo_left(f, g, alpha):
    """The left Caputo apply with the FFT convolution always taken."""
    out = np.zeros_like(f)
    c = g.h ** (-alpha) / gamma(2.0 - alpha)
    out[1:] = c * _convolve(_kernel("l1", g.num_intervals, alpha)[2], np.diff(f, axis=0))
    return out


@pytest.mark.parametrize("n", [2, 3, 17, 256, 4096])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.999])
def test_constant_columns_skip_the_transform_bitwise(n, alpha):
    g = Grid(0.0, 1.0, n)
    f = np.tile([0.0, 2.75, -1e3], (n + 1, 1))
    left = _transformed_caputo_left(f, g, alpha)
    right = _transformed_caputo_left(f[::-1], g, alpha)[::-1]
    kernel = np.zeros(n + 1)
    kernel[:-1] = (g.b - g.nodes()[:-1]) ** (-alpha) / gamma(1.0 - alpha)
    rl = right + kernel[:, None] * f[-1][None, :]
    assert not np.signbit(left).any() and not np.signbit(right).any()
    assert np.array_equal(_bits(_apply_caputo_left(f, g, alpha)), _bits(left))
    assert np.array_equal(_bits(_apply_caputo_right(f, g, alpha)), _bits(right))
    assert np.array_equal(_bits(_apply_rl_right(f, g, alpha)), _bits(rl))


@pytest.mark.parametrize("node", [0, 7, 16])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.999])
def test_one_node_off_constant_is_transformed(node, alpha):
    g = Grid(0.0, 1.0, 16)
    const = np.full((17, 1), 3.0)
    f = const.copy()
    f[node] += 0.5
    for op in (_apply_caputo_left, _apply_caputo_right, _apply_rl_right):
        assert np.any(op(f, g, alpha) != op(const, g, alpha))
    assert np.array_equal(_bits(_apply_caputo_left(f, g, alpha)),
                          _bits(_transformed_caputo_left(f, g, alpha)))
    # an infinite constant has NaN differences, which are transformed too
    with np.errstate(invalid="ignore"):
        out = _apply_caputo_left(np.full((17, 1), np.inf), g, alpha)
    assert np.all(np.isnan(out[1:]))


def test_right_boundary_kernel_is_cached_read_only():
    g = Grid(-0.5, 1.5, 300)
    k = _right_boundary_kernel(g, 0.4)
    assert _right_boundary_kernel(Grid(-0.5, 1.5, 300), 0.4) is k
    assert not k.flags.writeable
    fresh = np.zeros(301)
    fresh[:-1] = (g.b - g.nodes()[:-1]) ** (-0.4) / gamma(0.6)
    assert np.array_equal(_bits(k), _bits(fresh))


def test_fft_applies_are_bitwise_repeatable(rng):
    g = Grid(0.0, 1.0, 513)
    f = rng.normal(size=(514, 3))
    _kernel.cache_clear()
    for op, order in (
        (_apply_caputo_left, 0.6),
        (_apply_caputo_right, 0.6),
        (_apply_rl_right, 0.6),
        (_apply_integral_right, 0.4),
    ):
        cold = op(f, g, order)
        assert np.array_equal(op(f, g, order), cold)


# ---------------------------------------------------------------------------
# transforms kept on the path
# ---------------------------------------------------------------------------

KEPT_CASES = [(n, alpha) for n in (2, 3, 17, 256) for alpha in (0.3, 0.75, 1.0)]


def _kept_case_paths(rng, n):
    """Two-component paths with f(b) != 0 and f(b) = 0, each without and
    with a flagged node (t = a, where the left RL term would sit)."""
    g = Grid(0.0, 1.0, n)
    vals = rng.normal(size=(n + 1, 2))
    vals_b0 = vals.copy()
    vals_b0[-1] = 0.0
    flags = np.zeros(n + 1, dtype=bool)
    flags[0] = True
    return g, [SampledPath(g, v, s) for v in (vals, vals_b0) for s in (None, flags)]


@pytest.mark.parametrize("n, alpha", KEPT_CASES)
def test_kept_transforms_are_the_raw_kernels_bitwise(rng, n, alpha):
    g, paths = _kept_case_paths(rng, n)
    for f in paths:
        for kept, apply in ((_caputo_left_of, _apply_caputo_left), (_rl_right_of, _apply_rl_right)):
            first = kept(f, alpha)
            assert np.array_equal(_bits(first), _bits(apply(f.values, g, alpha)))
            assert kept(f, alpha) is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 1.0
            with pytest.raises(ValueError):
                first += 1.0
        # the public operators read the kept values
        assert np.array_equal(caputo_deriv_left(f, alpha).values, _caputo_left_of(f, alpha))
        assert np.array_equal(rl_deriv_right(f, alpha).values, _rl_right_of(f, alpha))


@pytest.mark.parametrize("n", [2, 17])
def test_each_order_is_kept_apart_and_new_paths_start_empty(rng, n):
    g, paths = _kept_case_paths(rng, n)
    f = paths[1]
    low, high = _caputo_left_of(f, 0.3), _caputo_left_of(f, 0.75)
    assert low is not high
    assert np.array_equal(high, _apply_caputo_left(f.values, g, 0.75))
    _rl_right_of(f, 0.3)
    assert len(f._transforms) == 3
    assert _caputo_left_of(f, 0.3) is low
    for fresh in (f.component(0), SampledPath(g, f.values, f.singular)):
        assert fresh._transforms == {}
    assert len(f._transforms) == 3


@pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0])
@pytest.mark.parametrize("node", [0, -1])
def test_kept_non_finite_flagged_value_is_refused_every_time(node, alpha):
    # the transform spreads the flagged value to unflagged nodes; a kept
    # result is refused again, as a recomputed one would be
    g = Grid(0.0, 1.0, 16)
    vals = np.linspace(0.0, 1.0, 17)
    vals[node] = np.inf
    flags = np.zeros(17, dtype=bool)
    flags[node] = True
    f = SampledPath(g, vals, flags)
    with np.errstate(invalid="ignore"):
        for op in (caputo_deriv_left, rl_deriv_right, caputo_deriv_left, rl_deriv_right):
            with pytest.raises(ValueError, match="finite"):
                op(f, alpha)


def test_operator_memory_is_linear_in_n():
    # a dense table alone would be 8192^2 * 8 B = 512 MiB per operator
    g = Grid(0.0, 1.0, 8192)
    f = sample_path(g, np.sin)
    _kernel.cache_clear()
    tracemalloc.start()
    try:
        caputo_deriv_left(f, 0.75)
        rl_integral_right(f, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


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


def test_flag_free_paths_share_flags_that_cannot_be_made_writeable():
    g = Grid(0.0, 1.0, 16)
    a, b = SampledPath(g, np.arange(17.0)), sample_path(g, np.sin)
    assert a.singular is b.singular
    assert_bitwise(a.singular, np.zeros(17, dtype=bool))
    for flags in (a.singular, a.singular.view()):
        assert not flags.flags.writeable
        with pytest.raises(ValueError):
            flags.setflags(write=True)
        with pytest.raises(ValueError):
            flags[3] = True
    assert not SampledPath(g, np.ones(17)).singular.any()


def test_explicit_flags_are_copied():
    g = Grid(0.0, 1.0, 8)
    flags = np.zeros(9, dtype=bool)
    flags[-1] = True
    p = SampledPath(g, np.ones(9), flags)
    flags[-1] = False
    flags[2] = True
    assert_bitwise(p.singular, np.arange(9) == 8)
    assert not p.singular.flags.writeable
    # a component gets its own copy of its parent's flags, as does a path
    # given the shared flag-free array
    assert p.component(0).singular is not p.singular
    free = SampledPath(g, np.ones(9))
    assert SampledPath(g, np.ones(9), free.singular).singular is not free.singular
