"""Collocation solver: classical analytic oracles, fractional
self-consistency, refinement behavior and the study driver."""

import math

import numpy as np
import pytest

from fracnoether import (
    Grid,
    SolveError,
    SolverOptions,
    convergence_study,
    pontryagin_residual,
    solve_extremal,
)
from fracnoether import expr
from fracnoether.noether import SymmetryGenerator
from fracnoether.solver import check_newton_size

from conftest import scalar_spec


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)
    with pytest.raises(ValueError):
        SolverOptions(residual_tolerance=2.0)
    with pytest.raises(ValueError):
        SolverOptions(step_damping=0.0)


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


def test_grid_interval_must_match():
    spec = scalar_spec(0.5, "u1^2/2", "u1", 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_extremal(spec, Grid(0.0, 2.0, 32))


def test_newton_matrix_size_cap():
    # one state, one control, fixed ends: 3N + 1 unknowns; the matrix and
    # its LAPACK copy take unknowns^2 * 16 bytes, capped at 4 GiB = 16384^2 * 16
    spec = scalar_spec(0.75, "u1^2/2", "u1", 0.0, 1.0)
    assert check_newton_size(spec, Grid(0.0, 1.0, 5461)) == 16384
    with pytest.raises(ValueError, match="4 GiB cap"):
        check_newton_size(spec, Grid(0.0, 1.0, 5462))
    with pytest.raises(ValueError, match="N=20000"):
        solve_extremal(spec, Grid(0.0, 1.0, 20000))


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
        assert row.converged
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
        assert not row.converged
        assert math.isnan(row.conservation["momentum"])
