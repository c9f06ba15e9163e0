"""Hamiltonian construction, Pontryagin residual evaluation and the
Euler-Lagrange reduction."""

import math

import numpy as np
import pytest

from fracnoether import (
    Extremal,
    FractionalOrder,
    Grid,
    ProblemSpec,
    SampledPath,
    caputo_deriv_left,
    constant_path,
    euler_lagrange_residual,
    hamiltonian,
    is_cov_form,
    pontryagin_residual,
    rl_deriv_right,
    rl_integral_right,
    sample_path,
)
from fracnoether import expr
from fracnoether.fracops import _integral_end_weights
from fracnoether.model import (
    eval_stack,
    hamiltonian_partials,
    interior_max,
)

from conftest import VARS1, assert_bitwise, scalar_spec


def _extremal(grid, q_fn, u_fn, p_fn):
    return Extremal(
        q=sample_path(grid, q_fn),
        u=sample_path(grid, u_fn),
        p=sample_path(grid, p_fn),
    )


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_adjoint_in_data():
    message = r" references undeclared or adjoint variables: \['p1'\]$"
    with pytest.raises(ValueError, match="^lagrangian" + message):
        scalar_spec(0.5, "p1*u1", "u1", 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^dynamics\[0\]" + message):
        scalar_spec(0.5, "u1^2/2", "p1", 0.0, 1.0)


def test_spec_rejects_bad_interval_and_dims():
    with pytest.raises(ValueError):
        scalar_spec(0.5, "u1^2/2", "u1", 0.0, 1.0, a=2.0, b=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(
            order=FractionalOrder(0.5), a=0.0, b=1.0, n=2, m=1,
            lagrangian=expr.parse("u1^2/2", ("t", "q1", "q2", "u1")),
            dynamics=(expr.parse("u1", ("t", "q1", "q2", "u1")),),
            q_start=(0.0, 0.0), q_end=(1.0, None),
        )


# ---------------------------------------------------------------------------
# hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_examples():
    spec = scalar_spec(0.5, "u1^2/2", "u1", 0.0, 1.0)
    h = hamiltonian(spec)
    b = {"t": 0.3, "q1": 0.7, "u1": 2.0, "p1": -1.5}
    assert expr.evaluate(h, b) == 2.0**2 / 2 + (-1.5) * 2.0

    spec0 = scalar_spec(0.5, "0", "0", 0.0, 1.0)
    assert hamiltonian(spec0) == expr.Num(0.0)

    spec2 = scalar_spec(0.5, "q1", "q1+u1", 0.0, 1.0)
    h2 = hamiltonian(spec2)
    assert expr.evaluate(h2, b) == 0.7 + (-1.5) * (0.7 + 2.0)


def test_dp_gradient_equals_dynamics(rng):
    # differentiating the assembled H in p must reproduce phi
    spec = scalar_spec(0.6, "q1^2 + u1^2/2", "sin(q1) + u1*t", 0.0, 1.0)
    parts = hamiltonian_partials(spec)
    for _ in range(25):
        b = {name: float(rng.uniform(-1.0, 1.0)) for name in VARS1}
        assert math.isclose(
            expr.evaluate(parts.dp[0], b),
            expr.evaluate(spec.dynamics[0], b),
            rel_tol=1e-14, abs_tol=1e-14,
        )


def test_hamiltonian_affine_in_adjoint(rng):
    spec = scalar_spec(0.6, "q1^2 + u1^2/2", "sin(q1) + u1*t", 0.0, 1.0)
    h = hamiltonian(spec)
    for _ in range(25):
        b0 = {name: float(rng.uniform(-1.0, 1.0)) for name in VARS1}
        lam = float(rng.uniform(-2.0, 2.0))
        b_zero = dict(b0, p1=0.0)
        b_lam = dict(b0, p1=lam * b0["p1"])
        h0 = expr.evaluate(h, b_zero)
        assert math.isclose(
            expr.evaluate(h, b_lam) - h0,
            lam * (expr.evaluate(h, b0) - h0),
            rel_tol=1e-12, abs_tol=1e-12,
        )


# ---------------------------------------------------------------------------
# pontryagin residual
# ---------------------------------------------------------------------------

def test_classical_transport_extremal_residuals_vanish():
    spec = scalar_spec(1.0, "u1^2/2", "u1", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 128)
    cand = _extremal(grid, lambda t: t, lambda t: np.ones_like(t), lambda t: -np.ones_like(t))
    rep = pontryagin_residual(spec, cand)
    assert rep.adjoint_norm < 1e-8
    assert rep.state_norm < 1e-8
    assert rep.stationarity_norm < 1e-8
    # alpha=1: transversality record is just p at the endpoints
    assert np.allclose(rep.transversality_start, [-1.0])
    assert np.allclose(rep.transversality_end, [-1.0])


def test_transversality_end_is_the_enforced_free_end_row():
    # row N of the order 1-alpha integral is empty for alpha < 1; the
    # report gives row N-1, the one the solver drives to zero on a free end
    alpha = 0.6
    spec = scalar_spec(alpha, "u1^2/2", "u1", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 64)
    cand = _extremal(grid, lambda t: t, lambda t: np.ones_like(t), lambda t: 1.0 + t)
    rep = pontryagin_residual(spec, cand)
    p = cand.p.values
    assert p[-2, 0] != 0.0
    expected = _integral_end_weights(grid, 1.0 - alpha) @ p[-2:]
    assert np.array_equal(rep.transversality_end, expected)
    assert rep.transversality_end[0] != 0.0


def _two_state_spec(alpha):
    variables = ("t", "q1", "q2", "u1", "u2", "p1", "p2")
    return ProblemSpec(
        order=FractionalOrder(alpha), a=0.0, b=1.0, n=2, m=2,
        lagrangian=expr.parse("(u1^2 + u2^2)/2", variables),
        dynamics=(expr.parse("u1", variables), expr.parse("u2", variables)),
        q_start=(0.0, 1.0), q_end=(1.0, None),
    )


@pytest.mark.parametrize("alpha", [0.3, 0.75, 0.9, 1.0])
@pytest.mark.parametrize("states", [1, 2])
def test_transversality_start_is_row_zero_of_the_right_integral(alpha, states):
    # the report sums row 0 of the order 1-alpha integral directly; the
    # full FFT apply rounds differently, so they agree to rounding, and
    # exactly at alpha = 1 where both are p(a)
    grid = Grid(0.0, 1.0, 256)
    t = grid.nodes()
    if states == 1:
        spec = scalar_spec(alpha, "u1^2/2", "u1", 0.0, 1.0)
        p = SampledPath(grid, 1.0 + t + 0.5 * np.sin(3.0 * t))
        q = SampledPath(grid, t)
    else:
        spec = _two_state_spec(alpha)
        p = SampledPath(grid, np.column_stack([1.0 + t + 0.5 * np.sin(3.0 * t), 2.0 - t ** 2]))
        q = SampledPath(grid, np.column_stack([t, 1.0 + t ** 2]))
    u = constant_path(grid, (0.5,) * states)
    rep = pontryagin_residual(spec, Extremal(q=q, u=u, p=p))
    full = rl_integral_right(p, 1.0 - alpha).values[0]
    assert rep.transversality_start.shape == (states,)
    if alpha == 1.0:
        assert np.array_equal(rep.transversality_start, full)
    else:
        assert np.all(np.abs(rep.transversality_start - full) <= 1e-15 * np.abs(full))


def test_zero_adjoint_and_state_free_lagrangian_gives_zero_adjoint_residual():
    spec = scalar_spec(0.5, "u1^2/2 + sin(t)", "u1 + t", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 64)
    cand = _extremal(grid, lambda t: t, lambda t: np.cos(t), lambda t: np.zeros_like(t))
    rep = pontryagin_residual(spec, cand)
    assert np.all(rep.adjoint_residual.values == 0.0)


def test_interval_mismatch_rejected():
    spec = scalar_spec(0.5, "u1^2/2", "u1", 0.0, 1.0)
    grid = Grid(0.0, 2.0, 32)
    cand = _extremal(grid, lambda t: t / 2.0, np.cos, np.sin)
    with pytest.raises(ValueError):
        pontryagin_residual(spec, cand)


def test_fixed_boundary_mismatch_rejected():
    spec = scalar_spec(0.5, "u1^2/2", "u1", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 32)
    cand = _extremal(grid, lambda t: t + 0.5, np.cos, np.sin)
    with pytest.raises(ValueError):
        pontryagin_residual(spec, cand)


def test_classical_adjoint_residual_is_dq_plus_pdot():
    # at order 1 the right RL derivative of p is -p', so the adjoint
    # residual must equal dH/dq + (classical stencil of p)
    spec = scalar_spec(1.0, "(q1^2+u1^2)/2", "u1", 0.0, math.sinh(1.0))
    grid = Grid(0.0, 1.0, 64)
    cand = _extremal(grid, np.sinh, np.cosh, lambda t: -np.cosh(t))
    rep = pontryagin_residual(spec, cand)
    t = grid.nodes()
    h = grid.h
    p = -np.cosh(t)
    pdot = np.empty_like(p)
    pdot[0] = (-3 * p[0] + 4 * p[1] - p[2]) / (2 * h)
    pdot[1:-1] = (p[2:] - p[:-2]) / (2 * h)
    pdot[-1] = (3 * p[-1] - 4 * p[-2] + p[-3]) / (2 * h)
    expected = np.sinh(t) + pdot
    assert np.abs(rep.adjoint_residual.values[:, 0] - expected).max() < 1e-12


def test_interior_max_skips_flagged_interior_nodes():
    g = Grid(0.0, 1.0, 4)
    vals = np.array([100.0, 1.0, -50.0, -2.0, 100.0])
    assert interior_max(SampledPath(g, vals)) == 50.0
    vals[2] = np.inf
    assert interior_max(SampledPath(g, vals, [False, False, True, False, False])) == 2.0
    assert interior_max(SampledPath(g, vals, [False, True, True, True, False])) == 0.0


# ---------------------------------------------------------------------------
# Euler-Lagrange reduction
# ---------------------------------------------------------------------------

def test_is_cov_form():
    assert is_cov_form(scalar_spec(0.5, "u1^2/2", "u1", 0.0, 1.0))
    assert not is_cov_form(scalar_spec(0.5, "u1^2/2", "u1 + q1", 0.0, 1.0))


def test_el_requires_cov_form():
    spec = scalar_spec(0.5, "u1^2/2", "q1 + u1", 0.0, 1.0)
    q = sample_path(Grid(0.0, 1.0, 32), lambda t: t)
    with pytest.raises(ValueError):
        euler_lagrange_residual(spec, q)


def test_el_zero_for_state_and_control_free_lagrangian():
    spec = scalar_spec(0.5, "sin(t)", "u1", 0.0, 1.0)
    q = sample_path(Grid(0.0, 1.0, 32), lambda t: t**2)
    res = euler_lagrange_residual(spec, q)
    assert np.all(res.values == 0.0)


def test_el_classical_straight_line():
    spec = scalar_spec(1.0, "u1^2/2", "u1", 0.0, 1.0)
    q = sample_path(Grid(0.0, 1.0, 64), lambda t: t)
    res = euler_lagrange_residual(spec, q)
    assert np.abs(res.values[1:-1]).max() < 1e-10


@pytest.mark.parametrize("alpha", [0.4, 0.75, 1.0])
def test_el_equals_adjoint_residual_after_elimination(alpha):
    # build the adjoint-eliminated candidate: u = cDq, p = -dL/du; then the
    # Euler-Lagrange residual is the adjoint residual, number for number
    spec = scalar_spec(alpha, "(q1^2+u1^2)/2", "u1", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 96)
    q = sample_path(grid, lambda t: t + 0.3 * np.sin(np.pi * t) * t)
    w = caputo_deriv_left(q, spec.order)
    dl_du = expr.differentiate(spec.lagrangian, "u1")
    bindings = {"t": grid.nodes(), "q1": q.values[:, 0], "u1": w.values[:, 0]}
    p_vals = -expr.evaluate(dl_du, bindings)
    cand = Extremal(q=q, u=SampledPath(grid, w.values), p=SampledPath(grid, p_vals))
    rep = pontryagin_residual(spec, cand)
    el = euler_lagrange_residual(spec, q)
    gap = np.abs(el.values[1:-1] - rep.adjoint_residual.values[1:-1]).max()
    assert gap <= 1e-10


def test_vector_problem_residual_shapes():
    variables = ("t", "q1", "q2", "u1", "u2", "p1", "p2")
    spec = ProblemSpec(
        order=FractionalOrder(0.5), a=0.0, b=1.0, n=2, m=2,
        lagrangian=expr.parse("(u1^2 + u2^2)/2 + q1*q2", variables),
        dynamics=(expr.parse("u1", variables), expr.parse("q1 + u2", variables)),
        q_start=(0.0, 1.0), q_end=(1.0, None),
    )
    grid = Grid(0.0, 1.0, 32)
    q = SampledPath(grid, np.column_stack([grid.nodes(), 1.0 + grid.nodes() ** 2]))
    u = constant_path(grid, (0.5, -0.5))
    p = constant_path(grid, (0.1, 0.2))
    rep = pontryagin_residual(spec, Extremal(q=q, u=u, p=p))
    assert rep.adjoint_residual.dim == 2
    assert rep.state_residual.dim == 2
    assert rep.stationarity_residual.dim == 2
    assert rep.transversality_start.shape == (2,)
    assert math.isfinite(rep.adjoint_norm)


def _column_stack_formula(exprs, bindings, num_nodes):
    """The stack as each column broadcast, then stacked."""
    cols = [np.broadcast_to(np.asarray(expr.evaluate(e, bindings), dtype=float), (num_nodes,))
            for e in exprs]
    return np.column_stack(cols)


@pytest.mark.parametrize("sources", [
    ["2.5", "-0", "0", "1/(0 - 4)"],
    ["q1", "-q1", "q1*u1", "t + 0*q1", "sin(t)"],
    ["1.5", "q1", "-0", "u1 - u1", "-(u1 - u1)", "exp(1000*t)", "-t/3"],
], ids=["scalar", "array", "mixed"])
def test_eval_stack_matches_stacked_columns_bitwise(sources):
    n = 9
    t = np.linspace(0.0, 1.0, n)
    q = np.array([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan, 3.0, -0.0])
    u = np.array([-0.0, 0.0, 1.0, np.nan, 2.0, -1.0, 0.5, -0.0, 0.0])
    bindings = {"t": t, "q1": q, "u1": u}
    exprs = [expr.parse(s, VARS1) for s in sources]
    with np.errstate(all="ignore"):
        out = eval_stack(exprs, bindings, n)
        ref = _column_stack_formula(exprs, bindings, n)
    assert_bitwise(out, ref)
    assert out.flags.c_contiguous and out.flags.writeable
