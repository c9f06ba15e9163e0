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
the right RL derivative of p is generically singular at t = b.  This is
the one definition of the system the solver and the report share: H's
partials (`ProblemSpec.partials`), the collocated arrays and, at t = b,
the free-end row the solver enforces (`fracops._integral_end_weights`).
The transversality value at t = a reads only row 0 of the right integral,
so it is that row's weighted sum of the N + 1 samples of p
(`fracops._integral_start_value`), O(N), not a full O(N log N) apply.

A verification call costs its transforms plus the passes its result
needs.  `eval_stack` writes each expression of a stack into its column
of one preallocated (N+1, k) array.  `pontryagin_residual` evaluates the
three stacks of H's partials, reads the candidate's kept Caputo and RL
values and builds three paths; `euler_lagrange_residual` eliminates the
adjoint (one dL/du stack) and evaluates one dL/dq stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from . import expr
from .expr import Expression
from .fracops import (
    FractionalOrder,
    Grid,
    SampledPath,
    _apply_caputo_left,
    _apply_rl_right,
    _caputo_left_of,
    _integral_end_weights,
    _integral_start_value,
    _rl_right_of,
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
    adjoint variables.  Symbolic derivatives are kept on the instance.
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
        for i, (qa, qb) in enumerate(zip(self.q_start, self.q_end)):
            for side, v in (("start", qa), ("end", qb)):
                if v is not None and not math.isfinite(v):
                    raise ValueError(f"q{i + 1}_{side} must be finite, got {v}")
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

    def check_grid(self, grid: Grid) -> None:
        """Raise ValueError unless `grid` spans the problem interval."""
        if grid.a != self.a or grid.b != self.b:
            raise ValueError(
                "grid interval does not match the problem interval: "
                f"[{grid.a}, {grid.b}] vs [{self.a}, {self.b}]"
            )

    @cached_property
    def partials(self) -> "HamiltonianPartials":
        return hamiltonian_partials(self)

    @cached_property
    def lagrangian_partials(self) -> tuple[tuple[Expression, ...], tuple[Expression, ...]]:
        """Gradients of L with respect to the states and the controls."""
        return tuple(tuple(expr.differentiate(self.lagrangian, v) for v in names)
                     for names in (state_names(self.n), control_names(self.m)))


def hamiltonian(spec: ProblemSpec) -> Expression:
    """H = L + sum_i p_i * phi_i as an expression in (t, q, u, p)."""
    h = spec.lagrangian
    for name, phi in zip(adjoint_names(spec.n), spec.dynamics):
        h = expr.add(h, expr.mul(expr.Var(name), phi))
    return h


@dataclass(frozen=True)
class HamiltonianPartials:
    """Symbolic gradients of H used by the optimality system, and its
    second partials {(x, y): d(dH/dx)/dy} for x, y over the states,
    controls and adjoints, with the pairs that fold to zero left out."""

    h: Expression
    dq: tuple[Expression, ...]   # dH/dq_i
    du: tuple[Expression, ...]   # dH/du_j
    dp: tuple[Expression, ...]   # dH/dp_i
    hessian: dict


def hamiltonian_partials(spec: ProblemSpec) -> HamiltonianPartials:
    h = hamiltonian(spec)
    groups = (state_names(spec.n), control_names(spec.m), adjoint_names(spec.n))
    dq, du, dp = (tuple(expr.differentiate(h, v) for v in names) for names in groups)
    names = sum(groups, ())
    hessian = {}
    for x, first in zip(names, dq + du + dp):
        for y in names:
            second = expr.differentiate(first, y)
            if second != expr.ZERO:
                hessian[x, y] = second
    return HamiltonianPartials(h=h, dq=dq, du=du, dp=dp, hessian=hessian)


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
    """Evaluate expressions over node bindings into an (N+1, k) array,
    each written into its column (a scalar fills it)."""
    out = np.empty((num_nodes, len(exprs)))
    for j, e in enumerate(exprs):
        out[:, j] = expr.evaluate(e, bindings)
    return out


def _check_extremal(spec: ProblemSpec, ext: Extremal) -> None:
    """Raise ValueError unless `ext` lives on the problem interval with the
    problem's dimensions of q, u and p."""
    spec.check_grid(ext.grid)
    if ext.q.dim != spec.n or ext.u.dim != spec.m or ext.p.dim != spec.n:
        raise ValueError("extremal dimensions do not match the problem")


def _check_candidate(spec: ProblemSpec, cand: Extremal) -> None:
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
    caputo_q: np.ndarray | None = None,
    rl_p: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw residual arrays (state, adjoint, stationarity), one row per node.

    Shared by the residual report and the collocation solver, so the two
    always see bitwise-identical numbers.  The left Caputo values of q and
    the right RL values of p are the raw kernels' unless the caller passes
    them (the report passes the ones kept on its paths).
    """
    parts = spec.partials
    alpha = spec.alpha
    bindings = path_bindings(grid, q, u, p)
    nn = grid.num_nodes
    d_q = eval_stack(parts.dq, bindings, nn)
    d_u = eval_stack(parts.du, bindings, nn)
    d_p = eval_stack(parts.dp, bindings, nn)
    if caputo_q is None:
        caputo_q = _apply_caputo_left(q, grid, alpha)
    if rl_p is None:
        rl_p = _apply_rl_right(p, grid, alpha)
    state = d_p - caputo_q
    adjoint = d_q - rl_p
    return state, adjoint, d_u


@dataclass(frozen=True)
class ResidualReport:
    """Pontryagin-condition residual paths, their interior max-norms and
    the transversality values: the order 1 - alpha right integral of p at
    t = a (row 0 of the integral, one weighted sum of p's samples), and
    at t = b the row the solver enforces on a free end."""

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
    vals = path.values[inner]
    flags = path.singular[inner]
    if flags.any():
        vals = vals[~flags]
    return float(np.abs(vals).max()) if vals.size else 0.0


def pontryagin_residual(spec: ProblemSpec, cand: Extremal) -> ResidualReport:
    """Evaluate the residuals of the fractional Hamiltonian system, the
    stationarity condition, and the transversality values for a candidate.
    The left Caputo values of q and right RL values of p are the ones
    kept on the candidate's paths, which later checks of it reuse."""
    _check_extremal(spec, cand)
    _check_candidate(spec, cand)
    grid = cand.grid
    state, adjoint, stationarity = collocation_arrays(
        spec, grid, cand.q.values, cand.u.values, cand.p.values,
        _caputo_left_of(cand.q, spec.alpha), _rl_right_of(cand.p, spec.alpha),
    )
    state_path = SampledPath(grid, state)
    adjoint_path = SampledPath(grid, adjoint, _rl_singular(cand.p, spec.alpha, -1))
    stat_path = SampledPath(grid, stationarity)
    beta = 1.0 - spec.alpha
    return ResidualReport(
        state_residual=state_path,
        adjoint_residual=adjoint_path,
        stationarity_residual=stat_path,
        transversality_start=_integral_start_value(cand.p.values, grid, beta),
        transversality_end=_integral_end_weights(grid, beta) @ cand.p.values[-2:],
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


def eliminated_extremal(spec: ProblemSpec, q: SampledPath) -> Extremal:
    """The extremal a state path determines in a calculus-of-variations
    problem (phi = u): control u = left Caputo of q (the values kept on
    q), adjoint p = -dL/du evaluated at (t, q, u)."""
    if not is_cov_form(spec):
        raise ValueError(
            "adjoint elimination needs a variational-form problem: "
            "dynamics phi_i = u_i with m = n"
        )
    if q.dim != spec.n:
        raise ValueError(f"q must have {spec.n} components")
    grid = q.grid
    spec.check_grid(grid)
    u = _caputo_left_of(q, spec.alpha)
    _, d_u = spec.lagrangian_partials
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
    d_q, _ = spec.lagrangian_partials
    dl_dq = eval_stack(d_q, bindings, grid.num_nodes)
    # with p = -dL/du this is dL/dq + RL(dL/du): the RL operator is odd
    rl = _rl_right_of(ext.p, spec.alpha)
    return SampledPath(grid, dl_dq - rl, _rl_singular(ext.p, spec.alpha, -1))
