"""Fractional bracket operator, Noether charges and numerical verification
of fractional conservation laws along computed extremals.

The bracket of two paths is

    D^w[f, g] = -g * (right RL derivative of f) + f * (left Caputo of g),

summed over components for vector pairs; at w = 1 it collapses to the
classical derivative of the product f g.  A quantity is conserved in the
fractional sense when it splits into products whose pairs have vanishing
bracket (in either orientation) along extremals -- for orders below one
that is weaker than pointwise constancy, and the assembled charge is
genuinely non-constant.

The charge attached to a symmetry generator (tau, xi, sigma, rho) is

    C = [H - (1 - alpha) p . (left Caputo of q)] * tau - p . xi,

which at alpha = 1 is the classical H tau - p . xi.  Its default product
decomposition uses the pairs (p, xi) and (psi, tau) with
psi = -[H - (1 - alpha) p . (left Caputo of q)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .expr import Expression
from .fracops import (
    SampledPath,
    caputo_deriv_left,
    rl_deriv_right,
    _as_order,
)
from .model import (
    Extremal,
    ProblemSpec,
    control_names,
    eliminated_extremal,
    eval_stack,
    hamiltonian,
    hamiltonian_partials,
    interior_max,
    path_bindings,
    state_names,
)


@dataclass(frozen=True)
class SymmetryGenerator:
    """Infinitesimal transformation coefficients: tau shifts time, xi the
    states, sigma the controls, rho the adjoints.  All are expressions in
    (t, q, u, p); omitted pieces are zero."""

    tau: Expression
    xi: tuple[Expression, ...]
    sigma: tuple[Expression, ...]
    rho: tuple[Expression, ...]

    @staticmethod
    def create(n: int, m: int, tau=None, xi=None, sigma=None, rho=None) -> "SymmetryGenerator":
        zero = expr.ZERO
        return SymmetryGenerator(
            tau=tau if tau is not None else zero,
            xi=tuple(xi) if xi is not None else (zero,) * n,
            sigma=tuple(sigma) if sigma is not None else (zero,) * m,
            rho=tuple(rho) if rho is not None else (zero,) * n,
        )


def validate_generator(spec: ProblemSpec, gen: SymmetryGenerator) -> None:
    if len(gen.xi) != spec.n or len(gen.rho) != spec.n:
        raise ValueError(f"xi and rho must have {spec.n} components")
    if len(gen.sigma) != spec.m:
        raise ValueError(f"sigma must have {spec.m} components")
    allowed = frozenset(
        ("t",) + state_names(spec.n) + control_names(spec.m)
        + tuple(f"p{i + 1}" for i in range(spec.n))
    )
    for label, e in [("tau", gen.tau)] + [
        (f"xi[{i}]", e) for i, e in enumerate(gen.xi)
    ] + [(f"sigma[{j}]", e) for j, e in enumerate(gen.sigma)] + [
        (f"rho[{i}]", e) for i, e in enumerate(gen.rho)
    ]:
        bad = expr.free_variables(e) - allowed
        if bad:
            raise ValueError(f"{label} references undeclared variables: {sorted(bad)}")


def frac_bracket(f: SampledPath, g: SampledPath, order) -> SampledPath:
    """D^w[f, g] = -g . (right RL of f) + f . (left Caputo of g).

    Componentwise products summed for vector pairs; nodes where the RL
    derivative is singular stay flagged in the result.
    """
    if f.grid != g.grid:
        raise ValueError("bracket arguments live on different grids")
    if f.dim != g.dim:
        raise ValueError(f"bracket dimension mismatch: {f.dim} vs {g.dim}")
    o = _as_order(order)
    rl = rl_deriv_right(f, o)
    cap = caputo_deriv_left(g, o)
    vals = np.sum(-g.values * rl.values + f.values * cap.values, axis=1)
    flags = f.singular | g.singular | rl.singular | cap.singular
    return SampledPath(f.grid, vals, flags)


def _generator_paths(spec: ProblemSpec, ext: Extremal, gen: SymmetryGenerator):
    """Sample tau, xi, sigma, rho along the extremal."""
    grid = ext.grid
    bindings = path_bindings(grid, ext.q.values, ext.u.values, ext.p.values)
    nn = grid.num_nodes
    tau = SampledPath(grid, eval_stack([gen.tau], bindings, nn))
    xi = SampledPath(grid, eval_stack(gen.xi, bindings, nn))
    sigma = SampledPath(grid, eval_stack(gen.sigma, bindings, nn))
    rho = SampledPath(grid, eval_stack(gen.rho, bindings, nn))
    return tau, xi, sigma, rho


def _check_extremal(spec: ProblemSpec, ext: Extremal) -> None:
    g = ext.grid
    if g.a != spec.a or g.b != spec.b:
        raise ValueError("extremal grid does not match the problem interval")
    if ext.q.dim != spec.n or ext.u.dim != spec.m or ext.p.dim != spec.n:
        raise ValueError("extremal dimensions do not match the problem")


def _hamiltonian_minus_correction(spec: ProblemSpec, ext: Extremal) -> np.ndarray:
    """H - (1 - alpha) p . (left Caputo of q) along the extremal.

    At alpha = 1 the correction factor is exactly zero and this is H."""
    grid = ext.grid
    bindings = path_bindings(grid, ext.q.values, ext.u.values, ext.p.values)
    h_vals = eval_stack([hamiltonian(spec)], bindings, grid.num_nodes)[:, 0]
    if spec.order.is_classical:
        return h_vals
    cdq = caputo_deriv_left(ext.q, spec.order)
    p_dot_cdq = np.sum(ext.p.values * cdq.values, axis=1)
    return h_vals - (1.0 - spec.alpha) * p_dot_cdq


def noether_charge(spec: ProblemSpec, ext: Extremal, gen: SymmetryGenerator) -> SampledPath:
    """C = [H - (1 - alpha) p . (left Caputo of q)] * tau - p . xi."""
    _check_extremal(spec, ext)
    validate_generator(spec, gen)
    tau, xi, _, _ = _generator_paths(spec, ext, gen)
    core = _hamiltonian_minus_correction(spec, ext)
    p_dot_xi = np.sum(ext.p.values * xi.values, axis=1)
    return SampledPath(ext.grid, core * tau.values[:, 0] - p_dot_xi)


def cov_noether_charge(spec: ProblemSpec, q: SampledPath, gen: SymmetryGenerator) -> SampledPath:
    """Calculus-of-variations charge

        C = dL/du . xi + [L - alpha dL/du . (left Caputo of q)] * tau

    with every argument evaluated at (t, q, left Caputo of q)."""
    ext = eliminated_extremal(spec, q)
    validate_generator(spec, gen)
    grid = ext.grid
    # generators may also mention p; along the variational reduction the
    # adjoint is identified with -dL/du
    bindings = path_bindings(grid, ext.q.values, ext.u.values, ext.p.values)
    nn = grid.num_nodes
    dl_du = -ext.p.values
    lagr = eval_stack([spec.lagrangian], bindings, nn)[:, 0]
    tau = eval_stack([gen.tau], bindings, nn)[:, 0]
    xi = eval_stack(gen.xi, bindings, nn)
    du_dot_xi = np.sum(dl_du * xi, axis=1)
    du_dot_w = np.sum(dl_du * ext.u.values, axis=1)
    vals = du_dot_xi + (lagr - spec.alpha * du_dot_w) * tau
    return SampledPath(grid, vals)


def invariance_residual(spec: ProblemSpec, ext: Extremal, gen: SymmetryGenerator) -> SampledPath:
    """Pointwise defect of the invariance condition

        dH/dq . xi + dH/du . sigma + (dH/dp - cDq) . rho
            - p . (left Caputo of xi along the extremal)

    which vanishes identically when the problem is invariant under the
    generator.  Meaningful at interior nodes."""
    _check_extremal(spec, ext)
    validate_generator(spec, gen)
    grid = ext.grid
    parts = hamiltonian_partials(spec)
    bindings = path_bindings(grid, ext.q.values, ext.u.values, ext.p.values)
    nn = grid.num_nodes
    d_q = eval_stack(parts.dq, bindings, nn)
    d_u = eval_stack(parts.du, bindings, nn)
    d_p = eval_stack(parts.dp, bindings, nn)
    tau, xi, sigma, rho = _generator_paths(spec, ext, gen)
    cdq = caputo_deriv_left(ext.q, spec.order)
    cdxi = caputo_deriv_left(xi, spec.order)
    vals = (
        np.sum(d_q * xi.values, axis=1)
        + np.sum(d_u * sigma.values, axis=1)
        + np.sum((d_p - cdq.values) * rho.values, axis=1)
        - np.sum(ext.p.values * cdxi.values, axis=1)
    )
    return SampledPath(grid, vals)


def charge_decomposition(
    spec: ProblemSpec, ext: Extremal, gen: SymmetryGenerator
) -> list[tuple[SampledPath, SampledPath]]:
    """Default product pairs submitted to `verify_conservation`:
    (p, xi along the extremal) and (psi, tau along the extremal) with
    psi = -[H - (1 - alpha) p . (left Caputo of q)]."""
    _check_extremal(spec, ext)
    validate_generator(spec, gen)
    tau, xi, _, _ = _generator_paths(spec, ext, gen)
    psi = SampledPath(ext.grid, -_hamiltonian_minus_correction(spec, ext))
    return [(ext.p, xi), (psi, tau)]


@dataclass(frozen=True)
class PairCheck:
    """Bracket verdict for one product pair: the kept orientation, its
    residual path, and the interior max of that residual."""

    first: SampledPath
    second: SampledPath
    residual: SampledPath
    orientation: str          # 'forward' = D[first, second]
    max_residual: float


@dataclass(frozen=True)
class ConservationReport:
    pairs: tuple[PairCheck, ...]
    charge: SampledPath
    max_bracket_residual: float
    passed: bool
    classical_drift: float | None


def verify_conservation(
    decomposition, order, tolerance: float
) -> ConservationReport:
    """Check a sum-of-products decomposition for conservation.

    For each pair the bracket is evaluated in both orientations (the
    definition accepts either) and the orientation with the smaller
    interior max residual is kept.  The report assembles the charge as the
    sum of the pairwise products, flags `passed` when the worst pair
    residual is within the tolerance, and at order 1 also records the
    classical pointwise drift of the assembled charge.
    """
    pairs = list(decomposition)
    if not pairs:
        raise ValueError("decomposition must contain at least one pair")
    o = _as_order(order)
    grid = pairs[0][0].grid
    checks = []
    charge_vals = np.zeros(grid.num_nodes)
    for c1, c2 in pairs:
        if c1.grid != grid or c2.grid != grid:
            raise ValueError("decomposition pairs live on different grids")
        fwd = frac_bracket(c1, c2, o)
        rev = frac_bracket(c2, c1, o)
        fwd_max, rev_max = interior_max(fwd), interior_max(rev)
        if fwd_max <= rev_max:
            checks.append(PairCheck(c1, c2, fwd, "forward", fwd_max))
        else:
            checks.append(PairCheck(c1, c2, rev, "reversed", rev_max))
        charge_vals += np.sum(c1.values * c2.values, axis=1)
    charge = SampledPath(grid, charge_vals)
    worst = max(c.max_residual for c in checks)
    drift = None
    if o.is_classical:
        drift = float(np.abs(charge_vals - charge_vals[0]).max())
    return ConservationReport(
        pairs=tuple(checks),
        charge=charge,
        max_bracket_residual=worst,
        passed=worst <= tolerance,
        classical_drift=drift,
    )
