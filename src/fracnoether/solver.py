"""Damped-Newton collocation solver for the fractional Pontryagin system.

The optimality conditions are collocated directly on the grid and solved
simultaneously:

  * state equation dH/dp = (left Caputo of q) at nodes 1..N (at node 0
    the Caputo window is empty, so no equation lives there),
  * adjoint equation dH/dq = (right RL derivative of p) at nodes 0..N-1
    (node N is excluded because the right RL derivative is generically
    singular there; node 0 must be included or p_0 would decouple, since
    right-sided operators never look backwards),
  * stationarity dH/du = 0 at every node,
  * for every free right endpoint, the discrete transversality equation:
    the right fractional integral of p of order 1-alpha vanishes at the
    last node with a non-empty window (node N-1; at alpha = 1 the integral
    is the identity and the condition is the classical p(b) = 0).

The system, H's partials and that end row are defined once in `model` and
`fracops`; this module lays out unknowns and runs Newton on them.

Unknowns and rows are laid out node by node: x = (q, p) as an (N+1, 2n)
array, raveled, then u as an (N+1, m) array; the residual holds each
node's state and adjoint rows in x's slots, then stationarity.  A
prescribed end value keeps its slot.  The value is read from the spec,
and the slot's residual "slot - value" fills the row the collocation
leaves empty (the state row at node 0, the adjoint row at node N; a free
end puts its transversality equation there).

Newton's matrix J is the exact Jacobian of that residual, but it is never
formed.  Stationarity at a node involves only the unknowns at that node,
so the controls are eliminated node by node through the m x m block
H_uu = d2H/du2, which must be invertible at every node: the regularity
under which stationarity defines u.  What is left is the reduced matrix
K = J_xx - J_xu H_uu^-1 J_ux on x, of order 2n(N+1).  Its constant part
is minus the left Caputo matrix in the state rows, minus the right RL
matrix (with the boundary-kernel column on p_N) in the adjoint rows, the
two end weights of the order 1-alpha integral in the transversality rows
and one unit entry per prescribed value, alone in its column; it is
filled once per solve by indexing the L1 generating vector by lag (a
stencil at alpha = 1).  The rest sits on the diagonal node blocks: the
second partials of H with the elimination applied, re-evaluated at every
iterate on the nodes where both their equation and their unknown live.
One LU of K gives the step in x, exactly 0 in a prescribed slot, and the
control step follows node by node.  The step is damped by halving on
non-decrease.  Everything is deterministic: fixed iteration order, fixed
damping schedule, no randomness.  Every numeric failure of a solve is
raised as `SolveError`; a non-finite second partial or a singular H_uu
counts as a singular Jacobian.

K is dense, so a size whose K plus the copy LAPACK factorizes would pass
a fixed 4 GiB (N = 8191 for one state) is refused before anything is
allocated (`check_newton_size`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .expr import DomainError
from .fracops import (
    Grid,
    SampledPath,
    _caputo_left_rows,
    _integral_end_weights,
    _right_boundary_kernel,
)
from .model import (
    Extremal,
    ProblemSpec,
    adjoint_names,
    collocation_arrays,
    control_names,
    eval_stack,
    path_bindings,
    state_names,
)


class SolveError(RuntimeError):
    """A solve that failed numerically: a singular Newton matrix, or an
    iterate outside the domain of the problem's expressions."""


class SingularJacobianError(SolveError):
    """Raised when the Newton matrix cannot be factorized: a non-finite
    second partial of H, a singular H_uu at some node or a singular K."""

    def __init__(self, iteration: int):
        super().__init__(f"singular Jacobian at Newton iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverOptions:
    """Newton iteration settings."""

    max_iterations: int = 50
    residual_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not (0.0 < self.residual_tolerance < 1.0):
            raise ValueError("residual_tolerance must lie in (0, 1)")


_DAMPING_FLOOR = 1.0 / 64.0

# bytes the reduced Newton matrix and the copy LAPACK factorizes may take
# together; fixed, so that a size is refused alike on every machine
_NEWTON_BYTES_CAP = 4 * 2**30


def check_newton_size(spec: ProblemSpec, grid: Grid) -> int:
    """Order of the reduced Newton matrix K on `grid`, the number of state
    and adjoint slots; raises ValueError when K plus the LAPACK copy
    (order^2 * 8 * 2 bytes) would pass the fixed 4 GiB cap."""
    order = 2 * spec.n * grid.num_nodes
    need = order * order * 8 * 2
    if need > _NEWTON_BYTES_CAP:
        raise ValueError(
            f"grid N={grid.num_intervals} needs a {order}x{order} reduced Newton matrix: "
            f"{need / 2**30:.1f} GiB with its LAPACK copy, above the solver's fixed "
            f"{_NEWTON_BYTES_CAP // 2**30} GiB cap"
        )
    return order


@dataclass(frozen=True)
class SolveOutcome:
    extremal: Extremal
    iterations: int
    final_residual: float
    converged: bool


class _Collocation:
    """Lays out unknowns node by node, assembles the residual vector and
    the Newton step."""

    def __init__(self, spec: ProblemSpec, grid: Grid):
        spec.check_grid(grid)
        self.num_qp = check_newton_size(spec, grid)
        self.spec = spec
        self.grid = grid
        self.nn = nn = grid.num_nodes
        self.num_unknowns = self.num_qp + spec.m * nn
        self.fixed_end = np.array([e is not None for e in spec.q_end])
        # the prescribed values of q at (a, b), nan at a free end
        self._ends = np.array([spec.q_start, [math.nan if e is None else e for e in spec.q_end]])
        # (p_{N-1}, p_N) weights of the transversality equation
        self._trans = _integral_end_weights(grid, 1.0 - spec.alpha)
        self._k4 = self._operator_part()
        self._second_partials(spec.partials.hessian)

    def _operator_part(self) -> np.ndarray:
        """The constant part of K as an (N+1, 2n, N+1, 2n) array: row
        (node, equation), column (node, unknown)."""
        spec, grid, nn, n = self.spec, self.grid, self.nn, self.spec.n
        k4 = np.zeros((nn, 2 * n, nn, 2 * n))
        for i in range(n):
            state = k4[1:, i, :, i]
            _caputo_left_rows(state, grid, spec.alpha)
            np.negative(state, out=state)
            adjoint = k4[:-1, n + i, :, n + i]
            _caputo_left_rows(adjoint[::-1, ::-1], grid, spec.alpha)
            np.negative(adjoint, out=adjoint)
            if not spec.order.is_classical:
                adjoint[:, -1] -= _right_boundary_kernel(grid, spec.alpha)[:-1]
            # a prescribed value: its column holds only the unit entry of
            # its "slot - value" row
            state[:, 0] = 0.0
            k4[0, i, 0, i] = 1.0
            if self.fixed_end[i]:
                state[:, -1] = 0.0
                k4[-1, n + i, -1, i] = 1.0
            else:
                k4[-1, n + i, -2:, n + i] = self._trans
        return k4

    def _second_partials(self, hessian: dict) -> None:
        """Lay out the second partials of H node by node.

        `_hess[k, a, b]` is d(dH/dx_a)/dy_b at node k, for the equations
        x = (p, q, u) (dH/dp is the state equation, dH/dq the adjoint one,
        dH/du stationarity) and the unknowns y = (q, p, u), the order of a
        node's rows and columns.  A pair is evaluated only on the nodes
        where its equation and its unknown both live, so a prescribed end
        value never enters a second partial; every other entry stays 0.
        """
        spec, nn = self.spec, self.nn
        qs, us, ps = state_names(spec.n), control_names(spec.m), adjoint_names(spec.n)
        eqs = [(x, 1, nn) for x in ps] + [(x, 0, nn - 1) for x in qs] + [(x, 0, nn) for x in us]
        unknowns = ([(y, 1, nn - 1 if fixed else nn) for y, fixed in zip(qs, self.fixed_end)]
                    + [(y, 0, nn) for y in ps + us])
        self._hess = np.zeros((nn, len(eqs), len(unknowns)))
        self._terms = [
            (hessian[x, y], slice(max(x_lo, y_lo), min(x_hi, y_hi)), a, b)
            for a, (x, x_lo, x_hi) in enumerate(eqs)
            for b, (y, y_lo, y_hi) in enumerate(unknowns)
            if (x, y) in hessian
        ]
        # the constant part of K's diagonal node blocks, so that each
        # `reduced_jacobian` call rewrites them whole
        self._nodes = np.arange(nn)
        self._base = self._k4[self._nodes, :, self._nodes, :]

    def initial_guess(self) -> np.ndarray:
        """The straight line between the end values of q (constant up to a
        free end), zero p and u."""
        x = np.zeros(self.num_unknowns)
        q = x[:self.num_qp].reshape(self.nn, -1)[:, :self.spec.n]
        qa, qb = self._ends[0], np.where(self.fixed_end, self._ends[1], self._ends[0])
        q[:] = qa + (qb - qa) * np.linspace(0.0, 1.0, self.nn)[:, None]
        q[-1] = qb
        return x

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q, u, p) node by node, with the prescribed values of q taken
        from the spec."""
        n = self.spec.n
        qp = x[:self.num_qp].reshape(self.nn, 2 * n)
        q = qp[:, :n].copy()
        q[0] = self._ends[0]
        q[-1, self.fixed_end] = self._ends[1, self.fixed_end]
        return q, x[self.num_qp:].reshape(self.nn, self.spec.m), qp[:, n:]

    def residual(self, x: np.ndarray) -> np.ndarray:
        """The collocated equations: the state and adjoint rows of every
        node (the rows of K), then stationarity, which pairs with the
        trailing control unknowns."""
        n = self.spec.n
        q, u, p = self.unpack(x)
        state, adjoint, stationarity = collocation_arrays(self.spec, self.grid, q, u, p)
        rows = np.concatenate([state, adjoint], axis=1)
        slots = x[:self.num_qp].reshape(self.nn, 2 * n)[[0, -1], :n] - self._ends
        rows[0, :n] = slots[0]
        rows[-1, n:] = np.where(self.fixed_end, slots[1], self._trans @ p[-2:])
        return np.concatenate([rows.ravel(), stationarity.ravel()])

    def reduced_jacobian(self, x: np.ndarray) -> np.ndarray:
        """K = J_xx - J_xu H_uu^-1 J_ux at x, with x = (q, p): the exact
        Newton matrix with the controls eliminated node by node.

        Stationarity at a node involves only the unknowns at that node, so
        the elimination changes only K's diagonal node blocks.  H_uu^-1
        and the gain H_uu^-1 J_ux are kept for `newton_step`.  The matrix
        belongs to the instance and is overwritten by the next call.
        Raises LinAlgError when a second partial is not finite or H_uu is
        singular at some node.
        """
        bindings = path_bindings(self.grid, *self.unpack(x))
        hess = self._hess
        for second, nodes, a, b in self._terms:
            sub = {k: v[nodes] for k, v in bindings.items()}
            hess[nodes, a, b] = eval_stack([second], sub, nodes.stop - nodes.start)[:, 0]
        if not np.isfinite(hess).all():
            raise np.linalg.LinAlgError("non-finite second partial of H")
        w = 2 * self.spec.n
        self._huu_inv = np.linalg.inv(hess[:, w:, w:])
        self._gain = self._huu_inv @ hess[:, w:, :w]
        blocks = hess[:, :w, :w] - hess[:, :w, w:] @ self._gain
        if not (np.isfinite(self._huu_inv).all() and np.isfinite(blocks).all()):
            raise np.linalg.LinAlgError("non-finite eliminated block")
        self._k4[self._nodes, :, self._nodes, :] = self._base + blocks
        return self._k4.reshape(self.num_qp, self.num_qp)

    def newton_step(self, x: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The Newton step at x for its residual f: solve
        K dx = -(f_x - J_xu H_uu^-1 f_u), then du = -H_uu^-1 (f_u + J_ux dx)
        node by node."""
        nn, nq, w = self.nn, self.num_qp, 2 * self.spec.n
        jac = self.reduced_jacobian(x)
        huu_f_u = self._huu_inv @ f[nq:].reshape(nn, -1, 1)
        rhs = f[:nq].reshape(nn, w, 1) - self._hess[:, :w, w:] @ huu_f_u
        dx = np.linalg.solve(jac, -rhs.ravel())
        du = -(huu_f_u + self._gain @ dx.reshape(nn, w, 1))
        return np.concatenate([dx, du.ravel()])

    def extremal(self, x: np.ndarray) -> Extremal:
        q, u, p = self.unpack(x)
        return Extremal(
            q=SampledPath(self.grid, q),
            u=SampledPath(self.grid, u),
            p=SampledPath(self.grid, p),
        )


def _residual_norm(f: np.ndarray) -> float:
    if not np.all(np.isfinite(f)):
        return math.inf
    return float(np.abs(f).max()) if f.size else 0.0


def solve_extremal(
    spec: ProblemSpec,
    grid: Grid,
    opts: SolverOptions | None = None,
) -> SolveOutcome:
    """Solve the collocated optimality system by damped Newton iteration.

    Returns the best iterate with converged=False when the iteration budget
    runs out; raises SingularJacobianError when a second partial of H is
    not finite, or H_uu or the reduced matrix K is singular, and SolveError
    with the message of the expr.DomainError when an iterate leaves the
    domain of the problem's expressions.
    """
    opts = opts or SolverOptions()
    try:
        return _newton(_Collocation(spec, grid), opts)
    except DomainError as e:
        raise SolveError(str(e)) from e


def _newton(colloc: _Collocation, opts: SolverOptions) -> SolveOutcome:
    x = colloc.initial_guess()
    f = colloc.residual(x)
    norm = _residual_norm(f)
    best_x, best_norm = x.copy(), norm
    iterations = 0
    converged = norm <= opts.residual_tolerance

    while not converged and iterations < opts.max_iterations:
        try:
            step = colloc.newton_step(x, f)
        except np.linalg.LinAlgError:
            raise SingularJacobianError(iterations + 1) from None
        lam = 1.0
        while True:
            x_try = x + lam * step
            f_try = colloc.residual(x_try)
            norm_try = _residual_norm(f_try)
            if norm_try < norm or lam <= _DAMPING_FLOOR:
                break
            lam *= 0.5
        x, f, norm = x_try, f_try, norm_try
        iterations += 1
        if norm < best_norm:
            best_x, best_norm = x.copy(), norm
        converged = norm <= opts.residual_tolerance

    if not converged:
        x, norm = best_x, best_norm
    return SolveOutcome(
        extremal=colloc.extremal(x),
        iterations=iterations,
        final_residual=norm,
        converged=converged,
    )


# perfbench/tracing.py patches `solver._fd_jacobian` when it installs its
# spans; this name keeps that benchmark file working until it wraps
# `_Collocation.reduced_jacobian` instead.  Nothing in the package calls it.
_fd_jacobian = _Collocation.reduced_jacobian


@dataclass(frozen=True)
class StudyRow:
    num_intervals: int
    converged: bool
    iterations: int
    final_residual: float
    conservation: dict[str, float] = field(default_factory=dict)


def convergence_study(
    spec: ProblemSpec,
    grids,
    opts: SolverOptions | None = None,
    generators: dict | None = None,
    conservation_tolerance: float = 1e-5,
) -> list[StudyRow]:
    """Solve on each grid and verify the named symmetries' conservation
    laws on each result.  Rows report the trend data without asserting
    monotonicity; a failed solve marks its row and the study continues.
    """
    from .noether import charge_decomposition, verify_conservation

    generators = generators or {}
    rows: list[StudyRow] = []
    for grid in grids:
        try:
            outcome = solve_extremal(spec, grid, opts)
        except SolveError:
            rows.append(StudyRow(
                num_intervals=grid.num_intervals,
                converged=False,
                iterations=0,
                final_residual=math.nan,
                conservation={name: math.nan for name in generators},
            ))
            continue
        conservation = {}
        for name, gen in generators.items():
            if outcome.converged:
                pairs = charge_decomposition(spec, outcome.extremal, gen)
                report = verify_conservation(pairs, spec.order, conservation_tolerance)
                conservation[name] = report.max_bracket_residual
            else:
                conservation[name] = math.nan
        rows.append(StudyRow(
            num_intervals=grid.num_intervals,
            converged=outcome.converged,
            iterations=outcome.iterations,
            final_residual=outcome.final_residual,
            conservation=conservation,
        ))
    return rows
