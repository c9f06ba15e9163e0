"""Exact collocation Jacobian: the matrix-free reduced Newton matrix and
step checked against forward finite differences of the residual, the
preconditioner against the matrix it inverts, GMRES against a dense
solve, and the one-step convergence they give on linear-quadratic
problems."""

import numpy as np
import pytest

from fracnoether import FractionalOrder, Grid, ProblemSpec, SingularJacobianError, solve_extremal
from fracnoether import expr
from fracnoether.cli import BUILTIN_EXAMPLES, load_config, run
from fracnoether.solver import _BLOCK, _Collocation, _gmres, _panel_qr, _sweep_inverses

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
    colloc.node_blocks(x)
    exact = np.column_stack([colloc.apply(e) for e in np.eye(k)])
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


def preconditioner_specs(alpha):
    """One and two states, fixed and free ends, with q-q second partials,
    so that P differs from K for alpha < 1."""
    one = ("t", "q1", "u1", "p1")
    two = ("t", "q1", "q2", "u1", "p1", "p2")
    for q_end in (0.4, None):
        yield ProblemSpec(
            order=FractionalOrder(alpha), a=0.0, b=1.0, n=1, m=1,
            lagrangian=expr.parse("u1^2/2 + q1^4/4", one),
            dynamics=(expr.parse("u1 + sin(q1)", one),),
            q_start=(0.3,), q_end=(q_end,),
        )
    for q_end in ((0.9, None), (None, 0.2), (0.9, 0.2), (None, None)):
        yield ProblemSpec(
            order=FractionalOrder(alpha), a=0.0, b=1.0, n=2, m=1,
            lagrangian=expr.parse("u1^2/2 + q1^4/4 + 0.6*(1 - cos(q2))", two),
            dynamics=(expr.parse("u1 + 0.4*sin(q2)", two), expr.parse("q1 - 0.35*q2 + u1", two)),
            q_start=(0.0, 0.4), q_end=q_end,
        )


@pytest.mark.parametrize("alpha", [0.4, 0.75, 1.0])
@pytest.mark.parametrize("n", [2, 3, 17])
def test_preconditioner_inverts_its_matrix(alpha, n, rng):
    for spec in preconditioner_specs(alpha):
        colloc = _Collocation(spec, Grid(0.0, 1.0, n))
        x = colloc.initial_guess() + 0.1 * rng.standard_normal(colloc.num_unknowns)
        colloc.node_blocks(x)
        colloc.factor()
        # P is K without the adjoint rows' q columns of the node blocks
        # for alpha < 1, and K itself at alpha = 1
        k, w = colloc.num_qp, 2 * spec.n
        p_mat = np.column_stack([colloc.apply(e) for e in np.eye(k)])
        if alpha < 1.0:
            nodes = p_mat.reshape(colloc.nn, w, colloc.nn, w)
            node = np.arange(colloc.nn)
            nodes[node, spec.n:, node, :spec.n] -= colloc.blocks[:, spec.n:, :spec.n]
        inverse = np.column_stack([colloc.precondition(col) for col in p_mat.T])
        assert np.abs(inverse - np.eye(k)).max() <= 1e-10


def counted(fn, calls):
    def wrapper(v):
        calls.append(1)
        return fn(v)
    return wrapper


def test_gmres_matches_a_dense_solve(rng):
    a = np.eye(12) + 0.3 * rng.standard_normal((12, 12))
    b = rng.standard_normal(12)
    exact = np.linalg.solve(a, b)
    # an unpreconditioned run that needs more than one restart of 4
    calls = []
    x = _gmres(counted(lambda v: a @ v, calls), lambda v: v, b, 1e-12, restart=4)
    assert len(calls) > 8
    assert np.abs(x - exact).max() <= 1e-10 * np.abs(exact).max()
    # a zero right-hand side gives zero without an iteration
    calls = []
    assert np.all(_gmres(counted(lambda v: a @ v, calls), lambda v: v, np.zeros(12), 1e-12) == 0.0)
    assert calls == []
    # the exact inverse as preconditioner converges in one iteration
    inverse = np.linalg.inv(a)
    calls = []
    x = _gmres(lambda v: a @ v, counted(lambda v: inverse @ v, calls), b, 1e-12)
    assert calls == [1]
    assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()


def test_gmres_raises_on_a_non_finite_value():
    with pytest.raises(np.linalg.LinAlgError, match="non-finite GMRES value"):
        _gmres(lambda v: np.full_like(v, np.nan), lambda v: v, np.ones(3), 1e-12)


def test_singular_preconditioner_blocks_raise():
    # a zero on the diagonal of a sweep block, and a zero panel column
    coef = np.zeros(2 * _BLOCK)
    coef[0] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        _sweep_inverses(coef, -np.ones((3, 1, 1)))
    with pytest.raises(np.linalg.LinAlgError):
        _panel_qr(np.zeros((2, 4, 12)))


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
            colloc.node_blocks(x)
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
