"""Problem specification, Hamiltonian construction and residual evaluation
for the fractional Pontryagin conditions.

A problem is

    minimize    integral of L(t, q, u) over [a, b]
    subject to  (left Caputo derivative of q)(t) = phi(t, q, u)

with per-component boundary data: q_i(a) always prescribed, q_i(b) either
prescribed or free.  The optimality conditions couple the left Caputo
derivative of the state with the right Riemann-Liouville derivative of the
adjoint p:

    dH/dq = (right RL derivative of p),   dH/dp = (left Caputo of q),
    dH/du = 0,
    (right fractional integral of order 1-alpha of p) . dq |_a^b = 0,

where H(t, q, u, p) = L + p . phi.  Residuals of the first three lines are
evaluated on the grid; their norms are maxima over interior nodes, because
the right RL derivative of p is generically singular at t = b.  The
transversality values at both ends are recorded, not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import expr
from .expr import Expression
from .fracops import (
    FractionalOrder,
    Grid,
    SampledPath,
    rl_integral_right,
    _apply_caputo_left,
    _apply_rl_right,
    _rl_singular,
)


def state_names(n: int) -> tuple[str, ...]:
    return tuple(f"q{i + 1}" for i in range(n))


def control_names(m: int) -> tuple[str, ...]:
    return tuple(f"u{i + 1}" for i in range(m))


def adjoint_names(n: int) -> tuple[str, ...]:
    return tuple(f"p{i + 1}" for i in range(n))


def declared_variables(n: int, m: int) -> tuple[str, ...]:
    return ("t",) + state_names(n) + control_names(m) + adjoint_names(n)


@dataclass(frozen=True)
class ProblemSpec:
    """Fractional optimal-control problem data.

    `dynamics` holds one expression per state component; `q_end` entries
    are floats for a fixed right endpoint and None for a free one.  The
    Lagrangian and dynamics may reference t, q1..qn, u1..um but never the
    adjoint variables.
    """

    order: FractionalOrder
    a: float
    b: float
    n: int
    m: int
    lagrangian: Expression
    dynamics: tuple[Expression, ...]
    q_start: tuple[float, ...]
    q_end: tuple[float | None, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if self.n < 1 or self.m < 1:
            raise ValueError("state and control dimensions must be positive")
        object.__setattr__(self, "dynamics", tuple(self.dynamics))
        object.__setattr__(self, "q_start", tuple(float(v) for v in self.q_start))
        object.__setattr__(
            self, "q_end",
            tuple(None if v is None else float(v) for v in self.q_end),
        )
        if len(self.dynamics) != self.n:
            raise ValueError(f"expected {self.n} dynamics expressions")
        if len(self.q_start) != self.n or len(self.q_end) != self.n:
            raise ValueError(f"boundary data must have {self.n} components")
        allowed = frozenset(("t",) + state_names(self.n) + control_names(self.m))
        for label, e in [("lagrangian", self.lagrangian)] + [
            (f"dynamics[{i}]", d) for i, d in enumerate(self.dynamics)
        ]:
            bad = expr.free_variables(e) - allowed
            if bad:
                raise ValueError(
                    f"{label} references undeclared or adjoint variables: "
                    f"{sorted(bad)}"
                )

    @property
    def alpha(self) -> float:
        return self.order.alpha

    def grid(self, num_intervals: int) -> Grid:
        return Grid(self.a, self.b, num_intervals)


def hamiltonian(spec: ProblemSpec) -> Expression:
    """H = L + sum_i p_i * phi_i as an expression in (t, q, u, p)."""
    h = spec.lagrangian
    for name, phi in zip(adjoint_names(spec.n), spec.dynamics):
        h = expr.add(h, expr.mul(expr.Var(name), phi))
    return h


@dataclass(frozen=True)
class HamiltonianPartials:
    """Symbolic gradients of H used by the optimality system."""

    h: Expression
    dq: tuple[Expression, ...]   # dH/dq_i
    du: tuple[Expression, ...]   # dH/du_j
    dp: tuple[Expression, ...]   # dH/dp_i


def hamiltonian_partials(spec: ProblemSpec) -> HamiltonianPartials:
    h = hamiltonian(spec)
    return HamiltonianPartials(
        h=h,
        dq=tuple(expr.differentiate(h, v) for v in state_names(spec.n)),
        du=tuple(expr.differentiate(h, v) for v in control_names(spec.m)),
        dp=tuple(expr.differentiate(h, v) for v in adjoint_names(spec.n)),
    )


def hamiltonian_hessian(spec: ProblemSpec, partials: HamiltonianPartials) -> dict:
    """Second partials of H, {(x, y): d(dH/dx)/dy} for x, y over the
    states, controls and adjoints; pairs that fold to zero are left out."""
    names = state_names(spec.n) + control_names(spec.m) + adjoint_names(spec.n)
    firsts = partials.dq + partials.du + partials.dp
    hessian = {}
    for x, first in zip(names, firsts):
        for y in names:
            second = expr.differentiate(first, y)
            if second != expr.ZERO:
                hessian[x, y] = second
    return hessian


@dataclass(frozen=True)
class Extremal:
    """Candidate triple (q, u, p) on a shared grid."""

    q: SampledPath
    u: SampledPath
    p: SampledPath

    def __post_init__(self) -> None:
        if not (self.q.grid == self.u.grid == self.p.grid):
            raise ValueError("q, u, p must share one grid")

    @property
    def grid(self) -> Grid:
        return self.q.grid


def path_bindings(grid: Grid, q: np.ndarray, u: np.ndarray, p: np.ndarray | None) -> dict:
    """Vectorized bindings mapping each variable to its node samples; the
    adjoint variables stay unbound when p is None."""
    n, m = q.shape[1], u.shape[1]
    bindings = {"t": grid.nodes()}
    for i, name in enumerate(state_names(n)):
        bindings[name] = q[:, i]
    for j, name in enumerate(control_names(m)):
        bindings[name] = u[:, j]
    if p is not None:
        for i, name in enumerate(adjoint_names(n)):
            bindings[name] = p[:, i]
    return bindings


def eval_stack(exprs, bindings, num_nodes: int) -> np.ndarray:
    """Evaluate expressions over node bindings into an (N+1, k) array."""
    cols = []
    for e in exprs:
        v = expr.evaluate(e, bindings)
        cols.append(np.broadcast_to(np.asarray(v, dtype=float), (num_nodes,)))
    return np.column_stack(cols)


def _check_candidate(spec: ProblemSpec, cand: Extremal) -> None:
    g = cand.grid
    if g.a != spec.a or g.b != spec.b:
        raise ValueError(
            f"candidate grid [{g.a}, {g.b}] does not match the problem "
            f"interval [{spec.a}, {spec.b}]"
        )
    if cand.q.dim != spec.n or cand.u.dim != spec.m or cand.p.dim != spec.n:
        raise ValueError("candidate dimensions do not match the problem")
    scale = 1.0 + abs(spec.a) + abs(spec.b)
    for i, (qa, qb) in enumerate(zip(spec.q_start, spec.q_end)):
        if abs(cand.q.values[0, i] - qa) > 1e-9 * scale:
            raise ValueError(f"q{i + 1}(a) does not match the prescribed start value")
        if qb is not None and abs(cand.q.values[-1, i] - qb) > 1e-9 * scale:
            raise ValueError(f"q{i + 1}(b) does not match the prescribed end value")


def collocation_arrays(
    spec: ProblemSpec,
    grid: Grid,
    q: np.ndarray,
    u: np.ndarray,
    p: np.ndarray,
    partials: HamiltonianPartials | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw residual arrays (state, adjoint, stationarity), one row per node.

    Shared by the residual report and the collocation solver, so the two
    always see bitwise-identical numbers.
    """
    parts = partials if partials is not None else hamiltonian_partials(spec)
    alpha = spec.alpha
    bindings = path_bindings(grid, q, u, p)
    nn = grid.num_nodes
    d_q = eval_stack(parts.dq, bindings, nn)
    d_u = eval_stack(parts.du, bindings, nn)
    d_p = eval_stack(parts.dp, bindings, nn)
    state = d_p - _apply_caputo_left(q, grid, alpha)
    adjoint = d_q - _apply_rl_right(p, grid, alpha)
    return state, adjoint, d_u


@dataclass(frozen=True)
class ResidualReport:
    """Pontryagin-condition residual paths, their interior max-norms and
    the transversality record (right fractional integral of p of order
    1 - alpha, evaluated at both endpoints)."""

    state_residual: SampledPath
    adjoint_residual: SampledPath
    stationarity_residual: SampledPath
    transversality_start: np.ndarray
    transversality_end: np.ndarray
    state_norm: float
    adjoint_norm: float
    stationarity_norm: float


def interior_max(path: SampledPath) -> float:
    """Max absolute value over interior, non-singular nodes."""
    inner = slice(1, path.grid.num_nodes - 1)
    keep = ~path.singular[inner]
    vals = np.abs(path.values[inner][keep])
    return float(vals.max()) if vals.size else 0.0


def pontryagin_residual(spec: ProblemSpec, cand: Extremal) -> ResidualReport:
    """Evaluate the residuals of the fractional Hamiltonian system, the
    stationarity condition, and the transversality record for a candidate."""
    _check_candidate(spec, cand)
    grid = cand.grid
    state, adjoint, stationarity = collocation_arrays(
        spec, grid, cand.q.values, cand.u.values, cand.p.values
    )
    state_path = SampledPath(grid, state)
    adjoint_path = SampledPath(grid, adjoint, _rl_singular(cand.p, spec.alpha, -1))
    stat_path = SampledPath(grid, stationarity)
    trans = rl_integral_right(cand.p, 1.0 - spec.alpha)
    return ResidualReport(
        state_residual=state_path,
        adjoint_residual=adjoint_path,
        stationarity_residual=stat_path,
        transversality_start=trans.values[0].copy(),
        transversality_end=trans.values[-1].copy(),
        state_norm=interior_max(state_path),
        adjoint_norm=interior_max(adjoint_path),
        stationarity_norm=interior_max(stat_path),
    )


def is_cov_form(spec: ProblemSpec) -> bool:
    """True when the dynamics are exactly phi_i = u_i and m = n, i.e. the
    problem is a fractional calculus-of-variations problem in disguise."""
    if spec.m != spec.n:
        return False
    return all(
        d == expr.Var(name) for d, name in zip(spec.dynamics, control_names(spec.m))
    )


def lagrangian_partials(spec: ProblemSpec) -> tuple[tuple[Expression, ...], tuple[Expression, ...]]:
    """Gradients of L with respect to the states and the controls."""
    d_q = tuple(expr.differentiate(spec.lagrangian, v) for v in state_names(spec.n))
    d_u = tuple(expr.differentiate(spec.lagrangian, v) for v in control_names(spec.m))
    return d_q, d_u


def eliminated_extremal(spec: ProblemSpec, q: SampledPath) -> Extremal:
    """The extremal a state path determines in a calculus-of-variations
    problem (phi = u): control u = left Caputo of q, adjoint p = -dL/du
    evaluated at (t, q, u)."""
    if not is_cov_form(spec):
        raise ValueError(
            "adjoint elimination needs a variational-form problem: "
            "dynamics phi_i = u_i with m = n"
        )
    if q.dim != spec.n:
        raise ValueError(f"q must have {spec.n} components")
    grid = q.grid
    if grid.a != spec.a or grid.b != spec.b:
        raise ValueError("path grid does not match the problem interval")
    u = _apply_caputo_left(q.values, grid, spec.alpha)
    _, d_u = lagrangian_partials(spec)
    p = -eval_stack(d_u, path_bindings(grid, q.values, u, None), grid.num_nodes)
    return Extremal(q=q, u=SampledPath(grid, u), p=SampledPath(grid, p))


def euler_lagrange_residual(spec: ProblemSpec, q: SampledPath) -> SampledPath:
    """Residual of the fractional Euler-Lagrange equation

        dL/dq (t, q, cDq) + (right RL derivative of dL/du (t, q, cDq)) = 0

    where the left Caputo derivative of q substitutes for the control.
    Only defined for calculus-of-variations problems (phi = u); values at
    the endpoints are stored but only interior nodes are meaningful.
    """
    ext = eliminated_extremal(spec, q)
    grid = ext.grid
    bindings = path_bindings(grid, ext.q.values, ext.u.values, ext.p.values)
    d_q, _ = lagrangian_partials(spec)
    dl_dq = eval_stack(d_q, bindings, grid.num_nodes)
    # with p = -dL/du this is dL/dq + RL(dL/du): the RL operator is odd
    rl = _apply_rl_right(ext.p.values, grid, spec.alpha)
    return SampledPath(grid, dl_dq - rl, _rl_singular(ext.p, spec.alpha, -1))
