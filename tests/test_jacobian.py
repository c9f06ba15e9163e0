"""Exact collocation Jacobian: the reduced Newton matrix and step checked
against forward finite differences of the residual, the operator matrices
against their apply kernels, and the one-step convergence it gives on
linear-quadratic problems."""

import numpy as np
import pytest

from fracnoether import FractionalOrder, Grid, ProblemSpec, SingularJacobianError, solve_extremal
from fracnoether import expr
from fracnoether.cli import BUILTIN_EXAMPLES, load_config, run
from fracnoether.fracops import _apply_caputo_left, _apply_caputo_right, _caputo_left_rows
from fracnoether.solver import _Collocation

from conftest import scalar_spec


def fd_jacobian(colloc, x, rel_step=1e-7):
    """Forward-difference Jacobian of the collocation residual, one
    residual evaluation per unknown."""
    f0 = colloc.residual(x)
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        h = rel_step * max(abs(x[j]), 1.0)
        x_pert = x.copy()
        x_pert[j] += h
        jac[:, j] = (colloc.residual(x_pert) - f0) / h
    return jac


def two_state_mixed_spec():
    variables = ("t", "q1", "q2", "u1", "u2", "p1", "p2")
    return ProblemSpec(
        order=FractionalOrder(0.6), a=0.0, b=1.0, n=2, m=2,
        lagrangian=expr.parse("(u1^2 + u2^2 + q2^2)/2", variables),
        dynamics=(expr.parse("u1", variables), expr.parse("q1 + u2", variables)),
        q_start=(0.0, 1.0), q_end=(1.0, None),
    )


def nonlinear_study_spec(alpha):
    """Quartic and cosine terms in L, sine coupling, q2 free at b."""
    variables = ("t", "q1", "q2", "u1", "p1", "p2")
    return ProblemSpec(
        order=FractionalOrder(alpha), a=0.0, b=1.0, n=2, m=1,
        lagrangian=expr.parse("u1^2/2 + 0.7*q1^4/4 + 0.6*(1 - cos(q2))", variables),
        dynamics=(expr.parse("u1 + 0.4*sin(q2)", variables),
                  expr.parse("q1 - 0.35*q2", variables)),
        q_start=(0.0, 0.4), q_end=(0.9, None),
    )


ORACLE_SPECS = {name: (lambda name=name: load_config(name).problem) for name in BUILTIN_EXAMPLES}
ORACLE_SPECS["two-state-mixed"] = two_state_mixed_spec
ORACLE_SPECS["nonlinear-alpha-1"] = lambda: nonlinear_study_spec(1.0)
ORACLE_SPECS["nonlinear-alpha-0.7"] = lambda: nonlinear_study_spec(0.7)


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_exact_jacobian_matches_finite_differences(name, rng):
    spec = ORACLE_SPECS[name]()
    colloc = _Collocation(spec, Grid(spec.a, spec.b, 16))
    # a perturbed iterate, away from any solution
    x = colloc.initial_guess() + 0.1 * rng.standard_normal(colloc.num_unknowns)
    # the prescribed end values keep their slots among the node-major (q, p)
    pinned = np.zeros((colloc.nn, 2 * spec.n), dtype=bool)
    pinned[0, :spec.n] = True
    pinned[-1, :spec.n] = [e is not None for e in spec.q_end]
    pinned = np.flatnonzero(pinned)
    x[pinned] = colloc.initial_guess()[pinned]
    f = colloc.residual(x)
    oracle = fd_jacobian(colloc, x)
    assert oracle.shape == (x.size, x.size)
    # the Schur complement of the controls' block, formed densely: the
    # first num_qp rows and columns belong to q and p, the rest to u
    k = colloc.num_qp
    schur = oracle[:k, :k] - oracle[:k, k:] @ np.linalg.solve(oracle[k:, k:], oracle[k:, :k])
    exact = colloc.reduced_jacobian(x).copy()
    assert exact.shape == (k, k)
    assert np.abs(exact - schur).max() <= 1e-6 * np.abs(schur).max()
    # the step with the controls recovered solves the full system
    step = colloc.newton_step(x, f)
    assert np.all(step[pinned] == 0.0)
    assert np.abs(oracle @ step + f).max() <= 1e-6 * (np.abs(oracle) @ np.abs(step)).max()


def test_initial_guess_holds_the_prescribed_values():
    # 1 + (0.3 - 1) * 1.0 rounds to 0.30000000000000004, so the straight
    # line alone would leave a prescribed slot off its value by one ulp
    spec = scalar_spec(0.75, "(q1^2 + u1^2)/2", "u1", 1.0, 0.3)
    colloc = _Collocation(spec, Grid(0.0, 1.0, 16))
    x = colloc.initial_guess()
    ends = [0, colloc.num_qp - 2]
    assert list(x[ends]) == [1.0, 0.3]
    assert np.all(colloc.newton_step(x, colloc.residual(x))[ends] == 0.0)


@pytest.mark.parametrize("alpha", [0.4, 0.75, 1.0])
@pytest.mark.parametrize("n", [2, 3, 17])
def test_caputo_rows_match_apply_kernels(alpha, n, rng):
    grid = Grid(0.0, 1.3, n)
    f = rng.standard_normal((n + 1, 2))
    full = np.zeros((n, n + 1))
    _caputo_left_rows(full, grid, alpha)
    left = _apply_caputo_left(f, grid, alpha)
    assert np.allclose(full @ f, left[1:], rtol=1e-13, atol=1e-13)
    # the reversed view gives the right Caputo matrix, rows 0..N-1
    mirrored = np.zeros((n, n + 1))
    _caputo_left_rows(mirrored[::-1, ::-1], grid, alpha)
    right = _apply_caputo_right(f, grid, alpha)
    assert np.allclose(mirrored @ f, right[:-1], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("name", sorted(BUILTIN_EXAMPLES))
def test_linear_quadratic_examples_take_one_newton_step(tmp_path, name):
    cfg = load_config(name)
    cfg.grid_n = 64
    assert run(cfg, out_dir=str(tmp_path)) == 0
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert "iterations: 1" in report


def test_non_finite_jacobian_is_singular():
    # at the initial guess the second partial 1490 e^(745 q^2) (1 + 1490 q^2)
    # overflows near q = 1 while the collocated residual stays finite
    spec = scalar_spec(0.75, "u1^2/2 + exp(745*q1^2)", "u1", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 32)
    colloc = _Collocation(spec, grid)
    x = colloc.initial_guess()
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(colloc.residual(x)))
        with pytest.raises(np.linalg.LinAlgError, match="non-finite second partial"):
            colloc.reduced_jacobian(x)
        with pytest.raises(SingularJacobianError) as info:
            solve_extremal(spec, grid)
    assert info.value.iteration == 1


def test_problem_without_second_partials_is_singular():
    # H = u + p t is affine with no cross terms: every second partial
    # vanishes and the stationarity rows of J are zero
    spec = scalar_spec(0.75, "u1", "t", 0.0, 1.0)
    with pytest.raises(SingularJacobianError) as info:
        solve_extremal(spec, Grid(0.0, 1.0, 8))
    assert info.value.iteration == 1
