"""Fractional bracket, Noether charges, invariance residuals and
conservation verification."""

import math

import numpy as np
import pytest

from fracnoether import (
    Extremal,
    Grid,
    SampledPath,
    caputo_deriv_left,
    constant_path,
    cov_noether_charge,
    charge_decomposition,
    euler_lagrange_residual,
    frac_bracket,
    invariance_residual,
    noether_charge,
    pontryagin_residual,
    rl_deriv_right,
    sample_path,
    solve_extremal,
    verify_conservation,
)
from fracnoether import expr, fracops
from fracnoether.cli import load_config
from fracnoether.model import eval_stack, path_bindings
from fracnoether.noether import SymmetryGenerator

from conftest import VARS1, scalar_spec

MOMENTUM = SymmetryGenerator.create(1, 1, xi=(expr.ONE,))
ENERGY = SymmetryGenerator.create(1, 1, tau=expr.ONE)


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def test_bracket_classical_is_product_derivative():
    g = Grid(0.0, 1.0, 128)
    f = sample_path(g, lambda t: t)
    out = frac_bracket(f, f, 1.0)
    # d/dt (t^2) = 2t; stencils are exact on quadratics
    assert np.abs(out.values[:, 0] - 2.0 * g.nodes()).max() < 1e-10


def test_bracket_classical_symmetry(rng):
    g = Grid(0.0, 1.0, 64)
    f = SampledPath(g, rng.normal(size=65))
    h = SampledPath(g, rng.normal(size=65))
    ab = frac_bracket(f, h, 1.0).values
    ba = frac_bracket(h, f, 1.0).values
    assert np.abs(ab - ba).max() < 1e-10 * max(1.0, np.abs(ab).max())


def test_bracket_zero_second_argument():
    g = Grid(0.0, 1.0, 32)
    f = sample_path(g, np.sin)
    out = frac_bracket(f, constant_path(g, 0.0), 0.5)
    assert np.all(out.values == 0.0)


def test_bracket_of_two_constants():
    g = Grid(0.0, 1.0, 64)
    one = constant_path(g, 1.0)
    out = frac_bracket(one, one, 0.5)
    t = g.nodes()[:-1]
    expected = -((1.0 - t) ** -0.5) / math.gamma(0.5)
    assert np.abs(out.values[:-1, 0] - expected).max() < 1e-12
    assert bool(out.singular[-1])


def test_bracket_vector_pairs_sum_components(rng):
    g = Grid(0.0, 1.0, 32)
    f = SampledPath(g, rng.normal(size=(33, 2)))
    h = SampledPath(g, rng.normal(size=(33, 2)))
    total = frac_bracket(f, h, 0.6).values[:, 0]
    parts = sum(
        frac_bracket(f.component(i), h.component(i), 0.6).values[:, 0]
        for i in range(2)
    )
    np.testing.assert_allclose(total, parts, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# charges
# ---------------------------------------------------------------------------

def _solved(alpha, lagrangian="u1^2/2", qa=0.0, qb=1.0, n=64):
    spec = scalar_spec(alpha, lagrangian, "u1", qa, qb)
    out = solve_extremal(spec, Grid(0.0, 1.0, n))
    assert out.converged
    return spec, out.extremal


def test_momentum_charge_is_minus_adjoint():
    spec, ext = _solved(0.75)
    c = noether_charge(spec, ext, MOMENTUM)
    assert np.array_equal(c.values[:, 0], -ext.p.values[:, 0])


def test_energy_charge_formula():
    spec, ext = _solved(0.75)
    c = noether_charge(spec, ext, ENERGY)
    h = expr.parse("u1^2/2 + p1*u1", ("t", "q1", "u1", "p1"))
    b = {"t": ext.grid.nodes(), "q1": ext.q.values[:, 0],
         "u1": ext.u.values[:, 0], "p1": ext.p.values[:, 0]}
    hv = expr.evaluate(h, b)
    cdq = caputo_deriv_left(ext.q, spec.order).values[:, 0]
    expected = hv - 0.25 * ext.p.values[:, 0] * cdq
    np.testing.assert_allclose(c.values[:, 0], expected, rtol=1e-12, atol=1e-14)


def test_energy_charge_classical_limit_is_hamiltonian():
    spec, ext = _solved(1.0, "(q1^2+u1^2)/2", 0.0, math.sinh(1.0))
    c = noether_charge(spec, ext, ENERGY)
    h = expr.parse("(q1^2+u1^2)/2 + p1*u1", ("t", "q1", "u1", "p1"))
    b = {"t": ext.grid.nodes(), "q1": ext.q.values[:, 0],
         "u1": ext.u.values[:, 0], "p1": ext.p.values[:, 0]}
    assert np.array_equal(c.values[:, 0], np.asarray(expr.evaluate(h, b)))


# ---------------------------------------------------------------------------
# variational (calculus-of-variations) charge
# ---------------------------------------------------------------------------

def test_cov_momentum_classical():
    spec = scalar_spec(1.0, "u1^2/2", "u1", 0.0, 1.0)
    q = sample_path(Grid(0.0, 1.0, 64), lambda t: t)
    c = cov_noether_charge(spec, q, MOMENTUM)
    assert np.abs(c.values - 1.0).max() < 1e-12


def test_cov_energy_classical():
    spec = scalar_spec(1.0, "u1^2/2", "u1", 0.0, 1.0)
    q = sample_path(Grid(0.0, 1.0, 64), lambda t: t)
    c = cov_noether_charge(spec, q, ENERGY)
    # L - dL/du * u = 1/2 - 1
    assert np.abs(c.values + 0.5).max() < 1e-12


def test_cov_requires_cov_form():
    spec = scalar_spec(0.5, "u1^2/2", "q1+u1", 0.0, 1.0)
    q = sample_path(Grid(0.0, 1.0, 32), lambda t: t)
    with pytest.raises(ValueError):
        cov_noether_charge(spec, q, MOMENTUM)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("gen", [MOMENTUM, ENERGY], ids=["momentum", "energy"])
def test_charges_agree_after_adjoint_elimination(alpha, gen):
    # substituting u = cDq and p = -dL/du into the optimal-control charge
    # reproduces the variational charge, node for node
    spec = scalar_spec(alpha, "(q1^2+u1^2)/2", "u1", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 96)
    q = sample_path(grid, lambda t: t + 0.2 * np.sin(np.pi * t))
    w = caputo_deriv_left(q, spec.order)
    dl_du = expr.differentiate(spec.lagrangian, "u1")
    b = {"t": grid.nodes(), "q1": q.values[:, 0], "u1": w.values[:, 0]}
    p = SampledPath(grid, -expr.evaluate(dl_du, b))
    ext = Extremal(q=q, u=SampledPath(grid, w.values), p=p)
    oc = noether_charge(spec, ext, gen)
    cov = cov_noether_charge(spec, q, gen)
    assert np.abs(oc.values - cov.values).max() <= 1e-10


# ---------------------------------------------------------------------------
# invariance residual
# ---------------------------------------------------------------------------

def test_invariance_exact_for_translation_symmetry():
    # state-independent L and phi: translation invariance holds exactly,
    # and the Caputo derivative of the constant shift is exactly zero
    spec, ext = _solved(0.75)
    res = invariance_residual(spec, ext, MOMENTUM)
    assert np.all(res.values == 0.0)


def test_invariance_zero_generator():
    spec, ext = _solved(0.6)
    zero = SymmetryGenerator.create(1, 1)
    res = invariance_residual(spec, ext, zero)
    assert np.all(res.values == 0.0)


def test_invariance_scaling_generator_reported_nonzero():
    spec, ext = _solved(0.5)
    scaling = SymmetryGenerator.create(1, 1, xi=(expr.Var("q1"),))
    res = invariance_residual(spec, ext, scaling)
    assert np.abs(res.values[1:-1]).max() > 1e-3


def test_invariance_plus_bracket_is_weighted_residual_combo(rng):
    # inv + D[p, xi] == (dH/dq - RL p) . xi + dH/du . sigma
    #                   + (dH/dp - cDq) . rho,  an exact discrete identity
    spec = scalar_spec(0.6, "(q1^2+u1^2)/2", "u1 + q1/4", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 48)
    ext = Extremal(
        q=sample_path(grid, lambda t: t),
        u=SampledPath(grid, rng.normal(size=49)),
        p=SampledPath(grid, rng.normal(size=49)),
    )
    gen = SymmetryGenerator(
        tau=expr.ZERO,
        xi=(expr.parse("q1 + t", ("t", "q1", "u1", "p1")),),
        sigma=(expr.parse("u1/2", ("t", "q1", "u1", "p1")),),
        rho=(expr.parse("cos(t)", ("t", "q1", "u1", "p1")),),
    )
    inv = invariance_residual(spec, ext, gen)
    b = {"t": grid.nodes(), "q1": ext.q.values[:, 0],
         "u1": ext.u.values[:, 0], "p1": ext.p.values[:, 0]}
    xi = SampledPath(grid, np.asarray(expr.evaluate(gen.xi[0], b)))
    bracket = frac_bracket(ext.p, xi, spec.order)
    rep = pontryagin_residual(spec, ext)
    sigma = np.asarray(expr.evaluate(gen.sigma[0], b))
    rho = np.asarray(expr.evaluate(gen.rho[0], b))
    combo = (
        rep.adjoint_residual.values[:, 0] * xi.values[:, 0]
        + rep.stationarity_residual.values[:, 0] * sigma
        + rep.state_residual.values[:, 0] * rho
    )
    lhs = inv.values[:, 0] + bracket.values[:, 0]
    scale = max(1.0, np.abs(combo).max())
    assert np.abs(lhs[1:-1] - combo[1:-1]).max() < 1e-12 * scale


def test_invariance_bounded_by_pontryagin_norms_on_extremals():
    spec, ext = _solved(0.75)
    gen = SymmetryGenerator.create(1, 1, xi=(expr.parse("t + 1", ("t", "q1", "u1", "p1")),))
    inv = invariance_residual(spec, ext, gen)
    b = {"t": ext.grid.nodes(), "q1": ext.q.values[:, 0],
         "u1": ext.u.values[:, 0], "p1": ext.p.values[:, 0]}
    xi = SampledPath(ext.grid, np.asarray(expr.evaluate(gen.xi[0], b)))
    bracket = frac_bracket(ext.p, xi, spec.order)
    rep = pontryagin_residual(spec, ext)
    norms = rep.adjoint_norm + rep.state_norm + rep.stationarity_norm
    gen_scale = np.abs(xi.values).max()
    lhs = np.abs(inv.values[1:-1, 0] + bracket.values[1:-1, 0]).max()
    assert lhs <= norms * gen_scale + 1e-13


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_momentum_pair_on_solved_extremal():
    spec, ext = _solved(0.75, n=128)
    ones = constant_path(ext.grid, 1.0)
    report = verify_conservation([(ext.p, ones)], spec.order, 1e-5)
    assert report.passed
    assert report.max_bracket_residual <= 1e-9
    assert report.pairs[0].orientation == "forward"
    assert report.classical_drift is None
    # the bracket here is minus the right RL derivative of p
    rl = rl_deriv_right(ext.p, spec.order)
    assert np.array_equal(report.pairs[0].residual.values[1:-1, 0], -rl.values[1:-1, 0])


def test_verify_classical_energy_drift():
    spec, ext = _solved(1.0, "(q1^2+u1^2)/2", 0.0, math.sinh(1.0), n=128)
    pairs = charge_decomposition(spec, ext, ENERGY)
    report = verify_conservation(pairs, spec.order, 1e-3)
    assert report.passed
    assert report.classical_drift is not None
    assert report.classical_drift < 1e-5


def test_verify_zero_pair():
    g = Grid(0.0, 1.0, 32)
    report = verify_conservation(
        [(constant_path(g, 0.0), sample_path(g, np.sin))], 0.5, 1e-12
    )
    assert report.passed
    assert report.max_bracket_residual == 0.0


def test_verify_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        verify_conservation([], 0.5, 1e-5)
    f = constant_path(Grid(0.0, 1.0, 16), 1.0)
    g = constant_path(Grid(0.0, 1.0, 32), 1.0)
    with pytest.raises(ValueError):
        verify_conservation([(f, g)], 0.5, 1e-5)


def test_verify_picks_better_orientation():
    # D[1, p] vanishes only in the reversed orientation when p solves the
    # *left*-sided equation; here just check the better side is reported
    spec, ext = _solved(0.5, n=64)
    ones = constant_path(ext.grid, 1.0)
    fwd = verify_conservation([(ext.p, ones)], spec.order, 1e-5)
    rev = verify_conservation([(ones, ext.p)], spec.order, 1e-5)
    assert fwd.max_bracket_residual == rev.max_bracket_residual
    assert {fwd.pairs[0].orientation, rev.pairs[0].orientation} == {"forward", "reversed"}


def test_default_decomposition_assembles_proof_form_charge():
    spec, ext = _solved(0.75)
    pairs = charge_decomposition(spec, ext, ENERGY)
    report = verify_conservation(pairs, spec.order, 1e3)
    # sum of products = p.xi + psi*tau = -(headline charge) for xi = 0,
    # summed by the same helper in the same order
    headline = noether_charge(spec, ext, ENERGY)
    np.testing.assert_array_equal(report.charge.values, -headline.values)


def test_generator_that_overflows_raises_domain_error():
    spec, ext = _solved(0.75)
    v = ("t", "q1", "u1", "p1")
    gen = SymmetryGenerator.create(1, 1, xi=(expr.parse("exp(1000*q1)", v),))
    with np.errstate(over="ignore"):
        for check in (charge_decomposition, invariance_residual):
            with pytest.raises(expr.DomainError, match="not finite"):
                check(spec, ext, gen)


@pytest.fixture
def convolutions(monkeypatch):
    """The shapes passed to each FFT convolution (`fracops._convolve`)."""
    calls = []
    convolve = fracops._convolve

    def counted(spectrum, x):
        calls.append(x.shape)
        return convolve(spectrum, x)

    monkeypatch.setattr(fracops, "_convolve", counted)
    return calls


def _power_law_candidate(alpha, n=64):
    """A `verify-large` style problem and a builder of fresh candidates
    from the same arrays: q = t^2.5, u its exact Caputo derivative, p = -u."""
    spec = scalar_spec(alpha, "u1^2/2 + 1.3*q1^2/2", "u1", 0.0, 1.0)
    g = Grid(0.0, 1.0, n)
    t = g.nodes()
    u = math.gamma(3.5) / math.gamma(3.5 - alpha) * t ** (2.5 - alpha)

    def fresh():
        return Extremal(q=SampledPath(g, t ** 2.5), u=SampledPath(g, u), p=SampledPath(g, -u))

    return spec, fresh


@pytest.mark.parametrize("gen", [MOMENTUM, ENERGY], ids=["momentum", "energy"])
def test_constant_generator_paths_take_no_transform(convolutions, gen):
    # xi = 1, tau = 1 and their zero partners are constant paths: their
    # Caputo and right RL derivatives are exact without an FFT convolution,
    # and a transform multiplied by a zero factor is not run at all.  Each
    # call gets a fresh candidate, so no transform kept by an earlier call
    # hides a skipped one.
    spec, fresh = _power_law_candidate(0.6)
    # Caputo of q for psi, then one transform of p in each orientation of
    # (p, xi) or (p, 0); the zero pair and its partner psi need none
    verify_conservation(charge_decomposition(spec, fresh(), gen), spec.order, 1e-5)
    assert len(convolutions) == 3
    convolutions.clear()
    invariance_residual(spec, fresh(), gen)
    assert len(convolutions) == 0
    # a non-zero rho needs the Caputo derivative of q, and only that
    rho = SymmetryGenerator.create(1, 1, tau=gen.tau, xi=gen.xi, rho=(expr.ONE,))
    invariance_residual(spec, fresh(), rho)
    assert len(convolutions) == 1
    convolutions.clear()
    # Caputo of q and right RL of p; row 0 of the right integral is a sum
    pontryagin_residual(spec, fresh())
    assert len(convolutions) == 2


def _verify_large_operation(spec, ext):
    """The calls of one `verify-large` operation, in its order."""
    pontryagin_residual(spec, ext)
    for gen in (MOMENTUM, ENERGY):
        verify_conservation(charge_decomposition(spec, ext, gen), spec.order, 1e-5)
        invariance_residual(spec, ext, gen)
    euler_lagrange_residual(spec, ext.q)


def test_each_path_is_transformed_once_per_order(convolutions):
    # fresh candidate: Caputo of q and RL of p (residual, then reused by
    # both charges, the momentum bracket and Euler-Lagrange), Caputo of p
    # (momentum bracket), RL and Caputo of psi (time bracket) and RL of
    # the eliminated adjoint.  Repeated on the same objects only the
    # paths each call builds anew are transformed: psi twice, and the
    # eliminated adjoint once.
    spec, fresh = _power_law_candidate(0.6)
    ext = fresh()
    counts = []
    for candidate in (ext, ext, fresh()):
        convolutions.clear()
        _verify_large_operation(spec, candidate)
        counts.append(len(convolutions))
    assert counts == [6, 3, 6]
    convolutions.clear()
    spec, fresh = _power_law_candidate(1.0)
    _verify_large_operation(spec, fresh())
    assert convolutions == []


def test_solver_transform_count_on_linear_frac(convolutions):
    # the solver transforms its own temporaries by the raw kernels, so
    # the paths it returns keep nothing
    cfg = load_config("example-linear-frac")
    spec = cfg.problem
    ext = solve_extremal(spec, Grid(spec.a, spec.b, 64), cfg.solver).extremal
    assert len(convolutions) == 18
    assert [path._transforms for path in (ext.q, ext.u, ext.p)] == [{}, {}, {}]


# ---------------------------------------------------------------------------
# zero factors: the skipped transforms against the definition
# ---------------------------------------------------------------------------

SHORTCUT_CASES = [(n, alpha) for n in (2, 3, 17, 256) for alpha in (0.3, 0.75, 1.0)]


def _bracket_by_definition(f, g, order):
    """-g . (right RL of f) + f . (left Caputo of g) and its flags, from
    the public operators with every transform run."""
    rl = rl_deriv_right(f, order)
    cap = caputo_deriv_left(g, order)
    vals = np.sum(-g.values * rl.values + f.values * cap.values, axis=1)
    return vals, f.singular | g.singular | rl.singular | cap.singular


def _assert_bracket_by_definition(f, g, order):
    out = frac_bracket(f, g, order)
    vals, flags = _bracket_by_definition(f, g, order)
    assert np.array_equal(out.values[:, 0], vals)
    assert np.array_equal(out.singular, flags)


def _invariance_by_definition(spec, ext, gen):
    """The invariance defect with both Caputo derivatives taken."""
    parts = spec.partials
    nn = ext.grid.num_nodes
    bindings = path_bindings(ext.grid, ext.q.values, ext.u.values, ext.p.values)
    d_q, d_u, d_p, xi, sigma, rho = (
        eval_stack(s, bindings, nn)
        for s in (parts.dq, parts.du, parts.dp, gen.xi, gen.sigma, gen.rho)
    )
    cdq = caputo_deriv_left(ext.q, spec.order).values
    cdxi = caputo_deriv_left(SampledPath(ext.grid, xi), spec.order).values
    return (
        np.sum(d_q * xi, axis=1)
        + np.sum(d_u * sigma, axis=1)
        + np.sum((d_p - cdq) * rho, axis=1)
        - np.sum(ext.p.values * cdxi, axis=1)
    )


@pytest.mark.parametrize("n, alpha", SHORTCUT_CASES)
def test_zero_factor_bracket_matches_definition(rng, n, alpha):
    g = Grid(0.0, 1.0, n)
    zero = constant_path(g, (0.0, 0.0))
    f = SampledPath(g, rng.normal(size=(n + 1, 2)))
    f_b0 = SampledPath(g, np.vstack([f.values[:-1], [0.0, 0.0]]))
    for path in (f, f_b0):
        _assert_bracket_by_definition(path, zero, alpha)
        _assert_bracket_by_definition(zero, path, alpha)
    # f(b) != 0: the RL endpoint flag stays although no transform runs
    assert frac_bracket(f, zero, alpha).singular[-1] == (alpha < 1.0)
    assert not frac_bracket(f_b0, zero, alpha).singular.any()


@pytest.mark.parametrize("n, alpha", SHORTCUT_CASES)
def test_flagged_partner_of_zero_factor_is_transformed(rng, n, alpha):
    g = Grid(0.0, 1.0, n)
    zero = constant_path(g, 0.0)
    flags = np.zeros(n + 1, dtype=bool)
    flags[-1] = True
    f = SampledPath(g, rng.normal(size=n + 1), flags)
    _assert_bracket_by_definition(f, zero, alpha)
    _assert_bracket_by_definition(zero, f, alpha)
    # a non-finite flagged value spreads through the transform and is
    # refused, as by the definition
    bad = SampledPath(g, np.append(f.values[:-1, 0], np.inf), flags)
    with np.errstate(invalid="ignore"):
        for pair in ((bad, zero), (zero, bad)):
            with pytest.raises(ValueError):
                _bracket_by_definition(*pair, alpha)
            with pytest.raises(ValueError):
                frac_bracket(*pair, alpha)


@pytest.mark.parametrize("n, alpha", SHORTCUT_CASES)
def test_zero_rho_invariance_matches_definition(rng, n, alpha):
    g = Grid(0.0, 1.0, n)
    t = g.nodes()
    spec = scalar_spec(alpha, "u1^2/2 + q1^2/2", "u1 + t*q1", 0.0, 1.0)
    ext = Extremal(
        q=SampledPath(g, rng.normal(size=n + 1)),
        u=SampledPath(g, np.cos(t)),
        p=SampledPath(g, rng.normal(size=n + 1)),
    )
    gen = SymmetryGenerator.create(
        1, 1, xi=(expr.parse("q1*t", VARS1),), sigma=(expr.parse("t", VARS1),)
    )
    out = invariance_residual(spec, ext, gen)
    assert np.array_equal(out.values[:, 0], _invariance_by_definition(spec, ext, gen))
    assert not out.singular.any()


@pytest.mark.parametrize("n, alpha", SHORTCUT_CASES)
def test_flagged_state_is_transformed_for_zero_rho(rng, n, alpha):
    # nothing in this problem or generator reads q except its Caputo
    # derivative, so only that transform can refuse a non-finite flag
    g = Grid(0.0, 1.0, n)
    spec = scalar_spec(alpha, "u1^2/2", "u1", 0.0, 1.0)
    flags = np.zeros(n + 1, dtype=bool)
    flags[0] = True
    u, p = SampledPath(g, rng.normal(size=n + 1)), SampledPath(g, rng.normal(size=n + 1))
    q = SampledPath(g, rng.normal(size=n + 1), flags)
    ext = Extremal(q=q, u=u, p=p)
    out = invariance_residual(spec, ext, MOMENTUM)
    assert np.array_equal(out.values[:, 0], _invariance_by_definition(spec, ext, MOMENTUM))
    bad = Extremal(q=SampledPath(g, np.insert(q.values[1:, 0], 0, np.nan), flags), u=u, p=p)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            _invariance_by_definition(spec, bad, MOMENTUM)
        with pytest.raises(ValueError):
            invariance_residual(spec, bad, MOMENTUM)


@pytest.mark.parametrize("xi", ["exp(1000*q1)", "-exp(1000*q1)", "exp(1000*q1) - exp(1000*q1)"],
                         ids=["inf", "-inf", "nan"])
def test_non_finite_generator_raises_the_same_domain_error(xi):
    spec, ext = _solved(0.75)
    gen = SymmetryGenerator.create(1, 1, xi=(expr.parse(xi, VARS1),))
    with np.errstate(over="ignore", invalid="ignore"):
        for check in (charge_decomposition, invariance_residual):
            with pytest.raises(expr.DomainError) as err:
                check(spec, ext, gen)
            assert str(err.value) == "a generator is not finite along the extremal"
        # every stack is evaluated before the finiteness check, so a later
        # stack's own domain error is the one raised
        gen = SymmetryGenerator.create(
            1, 1, xi=(expr.parse(xi, VARS1),), rho=(expr.parse("log(q1 - 10)", VARS1),))
        with pytest.raises(expr.DomainError, match="^log of a non-positive argument$"):
            invariance_residual(spec, ext, gen)
