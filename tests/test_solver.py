"""Collocation solver: classical and fractional analytic oracles,
fractional self-consistency, metamorphic relations, refinement behavior
and the study driver."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate

from fracnoether import (
    Extremal,
    FractionalOrder,
    Grid,
    ProblemSpec,
    SolveError,
    SolverOptions,
    charge_decomposition,
    convergence_study,
    pontryagin_residual,
    sample_path,
    solve_extremal,
)
from fracnoether import expr
from fracnoether.cli import BUILTIN_EXAMPLES, load_config
from fracnoether.model import declared_variables, eliminated_extremal
from fracnoether.noether import SymmetryGenerator
from fracnoether.solver import check_solve_size

from conftest import scalar_spec


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)
    with pytest.raises(ValueError):
        SolverOptions(residual_tolerance=2.0)


def test_classical_transport_is_exact():
    spec = scalar_spec(1.0, "u1^2/2", "u1", 0.0, 1.0)
    out = solve_extremal(spec, Grid(0.0, 1.0, 128))
    t = Grid(0.0, 1.0, 128).nodes()
    assert out.converged
    assert np.abs(out.extremal.q.values[:, 0] - t).max() < 1e-6
    assert np.abs(out.extremal.u.values[:, 0] - 1.0).max() < 1e-6
    assert np.abs(out.extremal.p.values[:, 0] + 1.0).max() < 1e-6


def test_classical_sinh_oracle():
    spec = scalar_spec(1.0, "(q1^2+u1^2)/2", "u1", 0.0, math.sinh(1.0))
    out = solve_extremal(spec, Grid(0.0, 1.0, 256))
    t = Grid(0.0, 1.0, 256).nodes()
    assert out.converged
    assert out.iterations <= 5
    assert np.abs(out.extremal.q.values[:, 0] - np.sinh(t)).max() < 1e-4


def test_linear_quadratic_converges_in_three_iterations():
    for source, qb in (("u1^2/2", 1.0), ("(q1^2+u1^2)/2", math.sinh(1.0))):
        spec = scalar_spec(1.0, source, "u1", 0.0, qb)
        out = solve_extremal(spec, Grid(0.0, 1.0, 64))
        assert out.converged
        assert out.iterations <= 3


def test_doubling_n_reduces_classical_error():
    spec = scalar_spec(1.0, "(q1^2+u1^2)/2", "u1", 0.0, math.sinh(1.0))
    errors = {}
    for n in (128, 256):
        out = solve_extremal(spec, Grid(0.0, 1.0, n))
        t = Grid(0.0, 1.0, n).nodes()
        errors[n] = np.abs(out.extremal.q.values[:, 0] - np.sinh(t)).max()
    assert errors[128] / errors[256] >= 3.0


@pytest.mark.parametrize("alpha", [0.5, 0.75])
def test_fractional_self_consistency(alpha):
    # converged outcomes satisfy the checker's residuals at solver accuracy
    spec = scalar_spec(alpha, "u1^2/2", "u1", 0.0, 1.0)
    opts = SolverOptions()
    out = solve_extremal(spec, Grid(0.0, 1.0, 256), opts)
    assert out.converged
    rep = pontryagin_residual(spec, out.extremal)
    bound = 10.0 * opts.residual_tolerance
    assert rep.adjoint_norm <= bound
    assert rep.state_norm <= bound
    assert rep.stationarity_norm <= bound
    # with a state-independent Lagrangian the adjoint residual is exactly
    # the right RL derivative of p (negated)
    from fracnoether import rl_deriv_right

    rl = rl_deriv_right(out.extremal.p, spec.order)
    assert np.array_equal(rep.adjoint_residual.values[1:-1], -rl.values[1:-1])


def test_free_right_end_tracking_oracle():
    # L = (u - sin(t))^2 / 2 with a free end: the optimum tracks u = sin(t)
    # with an identically zero adjoint
    spec = scalar_spec(0.6, "(u1 - sin(t))^2/2", "u1", 0.0, None)
    grid = Grid(0.0, 1.0, 96)
    out = solve_extremal(spec, grid)
    assert out.converged
    t = grid.nodes()
    assert np.abs(out.extremal.u.values[:, 0] - np.sin(t)).max() < 1e-7
    assert np.abs(out.extremal.p.values).max() < 1e-7
    rep = pontryagin_residual(spec, out.extremal)
    assert abs(rep.transversality_end[0]) < 1e-7


def test_free_end_transversality_is_driven_to_tolerance():
    # the report's end value is the row the solver enforces on a free end
    spec = scalar_spec(0.6, "(q1^2+u1^2)/2", "-q1 + u1", 1.0, None)
    opts = SolverOptions(residual_tolerance=1e-10)
    out = solve_extremal(spec, Grid(0.0, 1.0, 64), opts)
    assert out.converged
    assert np.abs(out.extremal.p.values[-2:]).max() > 1e-3
    rep = pontryagin_residual(spec, out.extremal)
    assert abs(rep.transversality_end[0]) <= opts.residual_tolerance


def test_free_right_end_classical_terminal_adjoint():
    # order 1, free end: transversality pins p(b) = 0
    spec = scalar_spec(1.0, "(q1^2+u1^2)/2", "u1", 1.0, None)
    out = solve_extremal(spec, Grid(0.0, 1.0, 128))
    assert out.converged
    assert abs(out.extremal.p.values[-1, 0]) < 1e-8


def momentum_exact_q(t, alpha):
    """Closed-form state of the momentum problem L = u^2/2, phi = u,
    q(0) = 0, q(1) = 1 for alpha > 1/2: p = kappa (1-t)^(alpha-1), u = -p,
    kappa = -(2 alpha - 1) Gamma(alpha), and
    q(t) = -kappa/Gamma(alpha) int_0^t (t-s)^(alpha-1) (1-s)^(alpha-1) ds."""
    kappa = -(2.0 * alpha - 1.0) * math.gamma(alpha)
    val, _ = scipy.integrate.quad(
        lambda s: (1.0 - s) ** (alpha - 1.0), 0.0, t,
        weight="alg", wvar=(0.0, alpha - 1.0), epsabs=1e-14, epsrel=1e-13,
    )
    return -kappa / math.gamma(alpha) * val


# max |q - q_exact| at N=256 on the nodes checked below (measured 0.1485,
# 1.137e-2 and 7.21e-4); the bound is this value plus a 10% margin
MOMENTUM_ERROR_N256 = {0.6: 0.149, 0.75: 1.1e-2, 0.9: 7.2e-4}


@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
def test_fractional_momentum_matches_closed_form(alpha):
    # The adjoint's (1-t)^(alpha-1) end singularity caps the order of the
    # computed q at 2 alpha - 1, well below the nominal L1 order 2 - alpha.
    # Checked on the nodes of the N=128 grid plus node N-1, where the
    # largest error sits for alpha <= 3/4.
    spec = scalar_spec(alpha, "u1^2/2", "u1", 0.0, 1.0)
    errors = {}
    for n in (128, 256, 512, 1024):
        grid = Grid(0.0, 1.0, n)
        out = solve_extremal(spec, grid)
        assert out.converged
        nodes = np.append(np.arange(n // 128, n, n // 128), n - 1)
        exact = [momentum_exact_q(t, alpha) for t in grid.nodes()[nodes]]
        errors[n] = np.abs(out.extremal.q.values[nodes, 0] - exact).max()
    assert errors[256] <= 1.1 * MOMENTUM_ERROR_N256[alpha]
    for n in (128, 256, 512):
        rate = math.log2(errors[n] / errors[2 * n])
        assert abs(rate - (2.0 * alpha - 1.0)) <= 0.1, (n, rate)


def manufactured_spec(alpha):
    """A nonlinear problem on [0, 1] built around q* = t + t^2,
    p* = (1-t)^2 + (1-t)^3, u* = -p*: L = u^2/2 + g(t) q and
    phi = u + sin q + s(t) with the forcing g = D_{1-}^alpha p* - cos(q*) p*
    and s = D_{0+}^alpha q* - u* - sin q*, from the closed forms
    D t^k = c_k t^(k-alpha) and D (1-t)^k = c_k (1-t)^(k-alpha),
    c_k = Gamma(k+1) / Gamma(k+1-alpha), written in as literals."""
    c = {k: repr(math.gamma(k + 1) / math.gamma(k + 1 - alpha)) for k in (1, 2, 3)}
    e = {k: repr(k - alpha) for k in (1, 2, 3)}
    q, p = "(t + t^2)", "((1-t)^2 + (1-t)^3)"
    dq = f"({c[1]}*t^{e[1]} + {c[2]}*t^{e[2]})"
    dp = f"({c[2]}*(1-t)^{e[2]} + {c[3]}*(1-t)^{e[3]})"
    return scalar_spec(alpha, f"u1^2/2 + ({dp} - cos{q}*{p})*q1",
                       f"u1 + sin(q1) + {dq} + {p} - sin{q}", 0.0, 2.0)


# max |q - q*| at N=256 (measured 6.72e-4, 7.90e-4 and 1.22e-3); the
# bound is this value plus a 10% margin
MANUFACTURED_ERROR_N256 = {0.5: 6.72e-4, 0.75: 7.90e-4, 0.9: 1.22e-3}


@pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9])
def test_newton_matches_a_manufactured_nonlinear_solution(alpha):
    # q, and p away from the ends, converge at the L1 order 2 - alpha.
    # Over all nodes p's largest error sits at an end node; at alpha = 0.5
    # it falls at about order 1 (measured 1.03-1.05).
    spec = manufactured_spec(alpha)
    q_err, p_err, p_window_err = {}, {}, {}
    for n in (128, 256, 512, 1024):
        grid = Grid(0.0, 1.0, n)
        out = solve_extremal(spec, grid)
        assert out.converged
        t = grid.nodes()
        q_dev = np.abs(out.extremal.q.values[:, 0] - (t + t**2))
        p_dev = np.abs(out.extremal.p.values[:, 0] - ((1 - t) ** 2 + (1 - t) ** 3))
        q_err[n], p_err[n] = q_dev.max(), p_dev.max()
        p_window_err[n] = p_dev[(t >= 0.25) & (t <= 0.75)].max()
    assert q_err[256] <= 1.1 * MANUFACTURED_ERROR_N256[alpha]
    for n in (128, 256, 512):
        for err in (q_err, p_window_err):
            rate = math.log2(err[n] / err[2 * n])
            assert abs(rate - (2.0 - alpha)) <= 0.1, (n, rate)
        if alpha == 0.5:
            rate = math.log2(p_err[n] / p_err[2 * n])
            assert 0.95 <= rate <= 1.15, (n, rate)


def manufactured_two_state_spec(alpha):
    """A coupled problem on [0, 1] with q2 free at b, built around
    q1* = t + t^2, q2* = 1 + t^2, p1* = (1-t)^2 + (1-t)^3, p2* = (1-t)^2,
    u* = -p*: L = (u1^2 + u2^2)/2 + g1 q1 + g2 q2, phi1 = u1 + q2 + s1 and
    phi2 = u2 + sin q1 + s2 with g1 = D_{1-}^alpha p1* - cos(q1*) p2*,
    g2 = D_{1-}^alpha p2* - p1*, s1 = D_{0+}^alpha q1* + p1* - q2* and
    s2 = D_{0+}^alpha q2* + p2* - sin q1*; the closed forms as in
    `manufactured_spec`."""
    c = {k: repr(math.gamma(k + 1) / math.gamma(k + 1 - alpha)) for k in (1, 2, 3)}
    e = {k: repr(k - alpha) for k in (1, 2, 3)}
    q1, q2 = "(t + t^2)", "(1 + t^2)"
    p1, p2 = "((1-t)^2 + (1-t)^3)", "(1-t)^2"
    dq1 = f"({c[1]}*t^{e[1]} + {c[2]}*t^{e[2]})"
    dq2 = f"{c[2]}*t^{e[2]}"
    dp1 = f"({c[2]}*(1-t)^{e[2]} + {c[3]}*(1-t)^{e[3]})"
    dp2 = f"{c[2]}*(1-t)^{e[2]}"
    names = declared_variables(2, 2)
    return ProblemSpec(
        order=FractionalOrder(alpha), a=0.0, b=1.0, n=2, m=2,
        lagrangian=expr.parse(
            f"(u1^2 + u2^2)/2 + ({dp1} - cos{q1}*{p2})*q1 + ({dp2} - {p1})*q2", names),
        dynamics=(expr.parse(f"u1 + q2 + {dq1} + {p1} - {q2}", names),
                  expr.parse(f"u2 + sin(q1) + {dq2} + {p2} - sin{q1}", names)),
        q_start=(0.0, 1.0), q_end=(2.0, None),
    )


# max |q - q*| at N=256 (measured 4.111e-4 and 7.186e-4); the bound is
# this value plus a 10% margin
MANUFACTURED_TWO_STATE_ERROR_N256 = {0.6: 4.111e-4, 0.8: 7.186e-4}


@pytest.mark.parametrize("alpha", [0.6, 0.8])
def test_newton_matches_a_manufactured_two_state_free_end_solution(alpha):
    # the coupling and the free-end transversality row keep the L1 order
    # 2 - alpha for q, and for p away from the ends; at alpha = 0.6 p's
    # largest error sits at node N and falls at about order 1 (measured
    # 0.994-1.006)
    spec = manufactured_two_state_spec(alpha)
    q_err, p_err, p_window_err = {}, {}, {}
    for n in (128, 256, 512, 1024):
        grid = Grid(0.0, 1.0, n)
        out = solve_extremal(spec, grid)
        assert out.converged
        t = grid.nodes()
        q_star = np.stack([t + t**2, 1 + t**2], axis=1)
        p_star = np.stack([(1 - t) ** 2 + (1 - t) ** 3, (1 - t) ** 2], axis=1)
        q_dev = np.abs(out.extremal.q.values - q_star).max(axis=1)
        p_dev = np.abs(out.extremal.p.values - p_star).max(axis=1)
        q_err[n], p_err[n] = q_dev.max(), p_dev.max()
        p_window_err[n] = p_dev[(t >= 0.25) & (t <= 0.75)].max()
    assert q_err[256] <= 1.1 * MANUFACTURED_TWO_STATE_ERROR_N256[alpha]
    for n in (128, 256, 512):
        for err in (q_err, p_window_err):
            rate = math.log2(err[n] / err[2 * n])
            assert abs(rate - (2.0 - alpha)) <= 0.1, (n, rate)
        if alpha == 0.6:
            rate = math.log2(p_err[n] / p_err[2 * n])
            assert 0.9 <= rate <= 1.1, (n, rate)


@pytest.mark.parametrize("name", sorted(BUILTIN_EXAMPLES))
def test_shifted_interval_gives_identical_solution(name):
    # no example depends on t explicitly, and [a, b] and [a+5, b+5] share h
    spec = load_config(name).problem
    moved = dataclasses.replace(spec, a=spec.a + 5.0, b=spec.b + 5.0)
    base = solve_extremal(spec, Grid(spec.a, spec.b, 64)).extremal
    shifted = solve_extremal(moved, Grid(moved.a, moved.b, 64)).extremal
    for path in ("q", "u", "p"):
        assert np.array_equal(getattr(base, path).values, getattr(shifted, path).values)


@pytest.mark.parametrize("name", sorted(BUILTIN_EXAMPLES))
def test_scaled_boundary_data_scales_the_solution(name):
    # every example is linear-quadratic, so tripling q_start and q_end
    # triples q, u and p; the largest deviation measured is 9.7e-14 of
    # max |3 x| (8.7e-14 absolute, u of example-momentum)
    spec = load_config(name).problem
    scaled = dataclasses.replace(
        spec,
        q_start=tuple(3.0 * v for v in spec.q_start),
        q_end=tuple(None if v is None else 3.0 * v for v in spec.q_end),
    )
    grid = Grid(spec.a, spec.b, 256)
    base = solve_extremal(spec, grid).extremal
    tripled = solve_extremal(scaled, grid).extremal
    for path in ("q", "u", "p"):
        want = 3.0 * getattr(base, path).values
        got = getattr(tripled, path).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_nonlinear_problem_converges():
    spec = scalar_spec(0.75, "u1^2/2 + cos(q1)", "u1", 0.0, 0.5)
    out = solve_extremal(spec, Grid(0.0, 1.0, 64))
    assert out.converged
    rep = pontryagin_residual(spec, out.extremal)
    assert rep.adjoint_norm < 1e-8


def test_non_convergence_returns_best_iterate():
    spec = scalar_spec(0.75, "u1^2/2 + cos(q1)", "u1", 0.0, 0.5)
    out = solve_extremal(
        spec, Grid(0.0, 1.0, 32),
        SolverOptions(max_iterations=1, residual_tolerance=1e-14),
    )
    assert not out.converged
    assert out.iterations == 1
    assert math.isfinite(out.final_residual)


def test_domain_error_is_raised_as_solve_error():
    # sqrt(q1) has an unbounded derivative at q1_start = 0
    spec = scalar_spec(0.75, "u1^2/2 + sqrt(q1)", "u1", 0.0, 1.0)
    with pytest.raises(SolveError) as info:
        solve_extremal(spec, Grid(0.0, 1.0, 16))
    assert isinstance(info.value.__cause__, expr.DomainError)
    assert str(info.value) == str(info.value.__cause__)


def test_second_partials_skip_the_prescribed_start_value():
    # d2(q1^1.5)/dq1^2 = 0.75 q1^-0.5 leaves the real domain at q1_start = 0;
    # that node carries no unknown q, so Newton never evaluates it there
    spec = scalar_spec(0.75, "u1^2/2 + q1^1.5/10", "u1", 0.0, 1.0)
    out = solve_extremal(spec, Grid(0.0, 1.0, 64))
    assert out.converged
    assert out.iterations <= 3
    assert out.extremal.q.values[0, 0] == 0.0


@pytest.mark.parametrize("n, max_iterations", [(16, 40), (128, 8)])
def test_floor_step_rescues_cubic_dynamics(n, max_iterations):
    # the line search takes the lambda = 1/64 step even when it raises the
    # residual; a search that stops there ends unconverged at both sizes
    spec = scalar_spec(0.75, "q1^2/2 + u1^2/2", "u1 + u1^3", 0.0, 1.0)
    out = solve_extremal(spec, Grid(0.0, 1.0, n))
    assert out.converged
    assert out.iterations <= max_iterations


def test_study_derives_partials_once_per_problem(monkeypatch):
    calls = []
    differentiate = expr.differentiate

    def counted(*args):
        calls.append(args)
        return differentiate(*args)

    monkeypatch.setattr(expr, "differentiate", counted)
    gens = {"energy": SymmetryGenerator.create(1, 1, tau=expr.ONE)}
    counts = []
    for sizes in ((16,), (16, 24, 32)):
        # a fresh spec each time: the derivatives are kept on the instance
        spec = scalar_spec(0.6, "u1^2/2 + cos(q1)", "u1", 0.0, None)
        calls.clear()
        rows = convergence_study(spec, [Grid(0.0, 1.0, n) for n in sizes], generators=gens)
        assert all(row.converged for row in rows)
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[1] == counts[0]


def _line_extremal(grid):
    """q = u = p = t/2 on `grid`: one state, one control."""
    line = sample_path(grid, lambda t: t / 2.0)
    return Extremal(q=line, u=line, p=line)


@pytest.mark.parametrize("call", [
    solve_extremal,
    lambda spec, grid: convergence_study(spec, [grid]),
    lambda spec, grid: pontryagin_residual(spec, _line_extremal(grid)),
    lambda spec, grid: charge_decomposition(
        spec, _line_extremal(grid), SymmetryGenerator.create(1, 1, xi=(expr.ONE,))),
    lambda spec, grid: eliminated_extremal(spec, _line_extremal(grid).q),
], ids=["solve_extremal", "convergence_study", "pontryagin_residual",
        "charge_decomposition", "eliminated_extremal"])
def test_grid_interval_must_match(call):
    # every entry point refuses a grid or extremal on [0, 2] alike
    spec = scalar_spec(0.5, "u1^2/2", "u1", 0.0, 1.0)
    with pytest.raises(ValueError, match="^grid interval does not match the problem interval"):
        call(spec, Grid(0.0, 2.0, 32))


def test_newton_matrix_size_cap():
    # one state, one control, alpha < 1: the working set is 315 doubles per
    # node (Krylov basis and images, sweep blocks, FFT buffers, second
    # partials), capped at 4 GiB
    spec = scalar_spec(0.75, "u1^2/2", "u1", 0.0, 1.0)
    assert check_solve_size(spec, Grid(0.0, 1.0, 1704351)) == 8 * 1704352 * 315
    with pytest.raises(ValueError, match="N=1704352 needs 4,294,969,560 bytes.*4 GiB cap"):
        check_solve_size(spec, Grid(0.0, 1.0, 1704352))
    with pytest.raises(ValueError, match="N=2000000"):
        solve_extremal(spec, Grid(0.0, 1.0, 2000000))


def test_two_states_mixed_endpoints():
    from fracnoether import FractionalOrder, ProblemSpec

    variables = ("t", "q1", "q2", "u1", "u2", "p1", "p2")
    spec = ProblemSpec(
        order=FractionalOrder(0.6), a=0.0, b=1.0, n=2, m=2,
        lagrangian=expr.parse("(u1^2 + u2^2 + q2^2)/2", variables),
        dynamics=(expr.parse("u1", variables), expr.parse("q1 + u2", variables)),
        q_start=(0.0, 1.0), q_end=(1.0, None),
    )
    out = solve_extremal(spec, Grid(0.0, 1.0, 48))
    assert out.converged
    rep = pontryagin_residual(spec, out.extremal)
    assert rep.adjoint_norm < 1e-8
    assert rep.state_norm < 1e-8
    assert out.extremal.q.values[0, 0] == 0.0
    assert out.extremal.q.values[-1, 0] == 1.0  # fixed first component
    assert out.extremal.q.values[0, 1] == 1.0


def test_convergence_study_rows():
    spec = scalar_spec(0.75, "u1^2/2", "u1", 0.0, 1.0)
    gens = {"momentum": SymmetryGenerator.create(1, 1, xi=(expr.ONE,))}
    grids = [Grid(0.0, 1.0, n) for n in (16, 32)]
    rows = convergence_study(spec, grids, generators=gens)
    assert [r.num_intervals for r in rows] == [16, 32]
    for row in rows:
        assert row.converged and row.status == "ok"
        assert row.conservation["momentum"] <= 1e-9


def test_convergence_study_empty():
    spec = scalar_spec(0.75, "u1^2/2", "u1", 0.0, 1.0)
    assert convergence_study(spec, []) == []


def test_convergence_study_marks_failed_rows():
    spec = scalar_spec(0.75, "u1^2/2 + cos(q1)", "u1", 0.0, 0.5)
    gens = {"momentum": SymmetryGenerator.create(1, 1, xi=(expr.ONE,))}
    opts = SolverOptions(max_iterations=1, residual_tolerance=1e-14)
    rows = convergence_study(spec, [Grid(0.0, 1.0, 16), Grid(0.0, 1.0, 32)],
                             opts, generators=gens)
    assert len(rows) == 2
    for row in rows:
        assert not row.converged and row.status == "unconverged"
        assert math.isnan(row.conservation["momentum"])
