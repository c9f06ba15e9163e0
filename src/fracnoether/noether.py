"""Fractional bracket operator, Noether charges and numerical verification
of fractional conservation laws along computed extremals.

The bracket of two paths is

    D^w[f, g] = -g * (right RL derivative of f) + f * (left Caputo of g),

summed over components for vector pairs; at w = 1 it collapses to the
classical derivative of the product f g.  A quantity is conserved in the
fractional sense when it splits into products whose pairs have vanishing
bracket (in either orientation) along extremals -- for orders below one
that is weaker than pointwise constancy, and the assembled charge is
genuinely non-constant.  A bracket or invariance term whose factor is
identically zero costs no transform: the transform it multiplies is not
run unless its path has a flagged node.  With a pure state translation
(tau = 0) or a pure time translation (xi = 0) one pair of the default
decomposition is zero, so each orientation of it transforms nothing.  A
transform that does run is the one kept on its path (see
`fracops.SampledPath`), so the extremal's q and p are transformed once
per kind however many charges, brackets and residuals read them.  Past
its transforms a check costs the passes its result needs: a generator
sample is checked for finiteness once, by the path built from it.

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
    _as_order,
    _caputo_left_of,
    _rl_right_of,
    _rl_singular,
)
from .model import (
    Extremal,
    ProblemSpec,
    _check_extremal,
    declared_variables,
    eliminated_extremal,
    eval_stack,
    interior_max,
    path_bindings,
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
    allowed = frozenset(declared_variables(spec.n, spec.m))
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

    A zero factor costs no transform: when g (or f) is identically zero
    and the path it multiplies has no flagged node, that path's transform
    is finite (short of overflow), so its product is zero and the
    transform is not run.  A flagged partner is still transformed, so a
    non-finite flagged value spreads and is refused as before.  A
    transform that runs is kept on its path, so bracketing the same path
    again at this order does not transform it again.
    """
    if f.grid != g.grid:
        raise ValueError("bracket arguments live on different grids")
    if f.dim != g.dim:
        raise ValueError(f"bracket dimension mismatch: {f.dim} vs {g.dim}")
    alpha = _as_order(order).alpha
    rl = cap = 0.0
    if g.values.any() or f.singular.any():
        rl = _rl_right_of(f, alpha)
    if f.values.any() or g.singular.any():
        cap = _caputo_left_of(g, alpha)
    vals = np.sum(-g.values * rl + f.values * cap, axis=1)
    return SampledPath(f.grid, vals, g.singular | _rl_singular(f, alpha, -1))


def _generator_paths(grid, bindings, *stacks) -> list[SampledPath]:
    """Sample each stack of generator expressions (tau as [gen.tau], xi,
    sigma or rho) over the extremal's node bindings, one path per stack.
    A sample that is not finite raises expr.DomainError, after every
    stack is evaluated; the path constructor is the one finiteness check."""
    samples = [eval_stack(s, bindings, grid.num_nodes) for s in stacks]
    try:
        return [SampledPath(grid, v) for v in samples]
    except ValueError:
        raise expr.DomainError("a generator is not finite along the extremal") from None


def _product_sum(pairs, num_nodes: int) -> np.ndarray:
    """Sum over the pairs of the componentwise products f . g, from zero."""
    return sum((np.sum(f.values * g.values, axis=1) for f, g in pairs), np.zeros(num_nodes))


def noether_charge(spec: ProblemSpec, ext: Extremal, gen: SymmetryGenerator) -> SampledPath:
    """C = [H - (1 - alpha) p . (left Caputo of q)] * tau - p . xi: minus
    the summed products of the pairs of `charge_decomposition`."""
    pairs = charge_decomposition(spec, ext, gen)
    return SampledPath(ext.grid, -_product_sum(pairs, ext.grid.num_nodes))


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
    generator.  Meaningful at interior nodes.  The Caputo derivative of q
    is read only when some rho sample is non-zero or q has a flagged
    node: a zero rho costs no transform, and a non-zero one reads the
    value kept on q, computed at most once per order."""
    _check_extremal(spec, ext)
    validate_generator(spec, gen)
    grid = ext.grid
    parts = spec.partials
    bindings = path_bindings(grid, ext.q.values, ext.u.values, ext.p.values)
    nn = grid.num_nodes
    d_q = eval_stack(parts.dq, bindings, nn)
    d_u = eval_stack(parts.du, bindings, nn)
    d_p = eval_stack(parts.dp, bindings, nn)
    xi, sigma, rho = _generator_paths(grid, bindings, gen.xi, gen.sigma, gen.rho)
    cdq = 0.0
    if rho.values.any() or ext.q.singular.any():
        cdq = _caputo_left_of(ext.q, spec.alpha)
    cdxi = _caputo_left_of(xi, spec.alpha)
    vals = (
        np.sum(d_q * xi.values, axis=1)
        + np.sum(d_u * sigma.values, axis=1)
        + np.sum((d_p - cdq) * rho.values, axis=1)
        - np.sum(ext.p.values * cdxi, axis=1)
    )
    return SampledPath(grid, vals)


def charge_decomposition(
    spec: ProblemSpec, ext: Extremal, gen: SymmetryGenerator
) -> list[tuple[SampledPath, SampledPath]]:
    """Default product pairs submitted to `verify_conservation`:
    (p, xi along the extremal) and (psi, tau along the extremal) with
    psi = -[H - (1 - alpha) p . (left Caputo of q)].  The Caputo
    derivative of q is the one kept on ext.q, so a second decomposition
    of the same extremal does not transform q again."""
    _check_extremal(spec, ext)
    validate_generator(spec, gen)
    grid = ext.grid
    bindings = path_bindings(grid, ext.q.values, ext.u.values, ext.p.values)
    tau, xi = _generator_paths(grid, bindings, [gen.tau], gen.xi)
    h = eval_stack([spec.partials.h], bindings, grid.num_nodes)[:, 0]
    if not spec.order.is_classical:   # at alpha = 1 the correction is exactly zero
        cdq = _caputo_left_of(ext.q, spec.alpha)
        h = h - (1.0 - spec.alpha) * np.sum(ext.p.values * cdq, axis=1)
    psi = SampledPath(grid, -h)
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
    charge_vals = _product_sum(pairs, grid.num_nodes)
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
