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
`fracops`; this module packs unknowns and runs Newton on them.

Unknowns are the interior state values (plus q_N for free ends), all
adjoint values including p_N, which stays coupled through every
right-sided evaluation, and all control values; the count is exactly
square.

Newton's matrix J is the exact Jacobian of that residual, but it is never
formed.  Stationarity at a node involves only the unknowns at that node,
so the controls are eliminated node by node through the m x m block
H_uu = d2H/du2, which must be invertible at every node: the regularity
under which stationarity defines u.  What is left is the reduced matrix
K = J_xx - J_xu H_uu^-1 J_ux on x = (q, p), of order 2nN plus one per free
end.  Its constant part is minus the left Caputo matrix in the state
rows, minus the right RL matrix (with the boundary-kernel column on p_N)
in the adjoint rows and the two end weights of the order 1-alpha integral
in the transversality rows; it is filled once per solve by indexing the
L1 generating vector by lag (a stencil at alpha = 1).  The rest sits on
the node blocks: the second partials of H with the elimination applied,
re-evaluated at every iterate.  One LU of K gives the step in x, and the
control step follows node by node.  The step is damped by halving on
non-decrease.  Everything is deterministic: fixed iteration order, fixed
damping schedule, no randomness.  Every numeric failure of a solve is
raised as `SolveError`; a non-finite second partial or a singular H_uu
counts as a singular Jacobian.

K is dense, so a size whose K plus the copy LAPACK factorizes would pass
a fixed 4 GiB (N = 8192 for one state with fixed ends) is refused before
anything is allocated (`check_newton_size`).
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
    step_damping: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not (0.0 < self.residual_tolerance < 1.0):
            raise ValueError("residual_tolerance must lie in (0, 1)")
        if not (0.0 < self.step_damping <= 1.0):
            raise ValueError("step_damping must lie in (0, 1]")


_DAMPING_FLOOR = 1.0 / 64.0

# bytes the reduced Newton matrix and the copy LAPACK factorizes may take
# together; fixed, so that a size is refused alike on every machine
_NEWTON_BYTES_CAP = 4 * 2**30


def check_newton_size(spec: ProblemSpec, grid: Grid) -> int:
    """Order of the reduced Newton matrix K on `grid`, the number of state
    and adjoint unknowns; raises ValueError when K plus the LAPACK copy
    (order^2 * 8 * 2 bytes) would pass the fixed 4 GiB cap."""
    free = sum(e is None for e in spec.q_end)
    order = 2 * spec.n * grid.num_intervals + free
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
    """Packs unknowns, assembles the residual vector and the Newton step."""

    def __init__(self, spec: ProblemSpec, grid: Grid):
        if grid.a != spec.a or grid.b != spec.b:
            raise ValueError("grid interval does not match the problem interval")
        self.num_qp = check_newton_size(spec, grid)
        self.spec = spec
        self.grid = grid
        self.nn = nn = grid.num_nodes
        self.num_unknowns = self.num_qp + spec.m * nn
        self.free_end = tuple(e is None for e in spec.q_end)
        # unknown layout: per-component interior q (+ q_N when free), then
        # all of p, then all of u
        self.q_slices = []
        offset = 0
        for i in range(spec.n):
            size = nn - 2 + (1 if self.free_end[i] else 0)
            self.q_slices.append(slice(offset, offset + size))
            offset += size
        self.p_offset = offset
        # (p_{N-1}, p_N) weights of the transversality equation
        self._trans = _integral_end_weights(grid, 1.0 - spec.alpha)
        self._jac = self._operator_part()
        self._second_partials(spec.partials.hessian)

    def _operator_part(self) -> np.ndarray:
        """The constant part of K, in the residual's row order."""
        spec, grid, nn = self.spec, self.grid, self.nn
        n, rows_per = spec.n, nn - 1
        p_cols = [slice(self.p_offset + i * nn, self.p_offset + (i + 1) * nn) for i in range(n)]
        jac = np.zeros((self.num_qp, self.num_qp))
        for i in range(n):
            state = jac[i * rows_per:(i + 1) * rows_per, self.q_slices[i]]
            _caputo_left_rows(state, grid, spec.alpha, first=1)
            np.negative(state, out=state)
            adjoint = jac[(n + i) * rows_per:(n + i + 1) * rows_per, p_cols[i]]
            _caputo_left_rows(adjoint[::-1, ::-1], grid, spec.alpha, first=0)
            np.negative(adjoint, out=adjoint)
            if not spec.order.is_classical:
                adjoint[:, -1] -= _right_boundary_kernel(grid, spec.alpha)[:-1]
        row = 2 * n * rows_per
        for i in range(n):
            if self.free_end[i]:
                jac[row, p_cols[i].stop - 2:p_cols[i].stop] = self._trans
                row += 1
        return jac

    def _second_partials(self, hessian: dict) -> None:
        """Lay out the second partials of H node by node.

        `_hess[k, a, b]` is d(dH/dx_a)/dy_b at node k, for the equations
        x = (p, q, u) (dH/dp is the state equation, dH/dq the adjoint one,
        dH/du stationarity) and the unknowns y = (q, p, u).  A pair is
        evaluated only on the nodes where its equation and its unknown
        both live, so a fixed endpoint value never enters a second
        partial; every other entry stays 0.
        """
        spec, nn = self.spec, self.nn
        w = 2 * spec.n
        qs, us, ps = state_names(spec.n), control_names(spec.m), adjoint_names(spec.n)
        # (variable, node range) of each equation and each unknown, in the
        # order of K's rows and columns (the controls come after them)
        eqs = [(x, 1, nn) for x in ps] + [(x, 0, nn - 1) for x in qs] + [(x, 0, nn) for x in us]
        unknowns = ([(y, 1, 1 + s.stop - s.start) for y, s in zip(qs, self.q_slices)]
                    + [(y, 0, nn) for y in ps] + [(y, 0, nn) for y in us])
        self._hess = np.zeros((nn, len(eqs), len(unknowns)))
        self._terms = [
            (hessian[x, y], slice(max(x_lo, y_lo), min(x_hi, y_hi)), a, b)
            for a, (x, x_lo, x_hi) in enumerate(eqs)
            for b, (y, y_lo, y_hi) in enumerate(unknowns)
            if (x, y) in hessian
        ]
        # flat (node, variable) index of each row and each column of K
        # into a (nodes, w) array; the transversality rows have none
        self._row_at, self._col_at = (
            np.concatenate([np.arange(lo, hi) * w + a for a, (_, lo, hi) in enumerate(v[:w])])
            for v in (eqs, unknowns))
        # every entry of K whose row and column meet at one node, and its
        # flat index into the (nodes, w, w) eliminated blocks
        row_of = np.full((nn, w, 1), -1)
        row_of.ravel()[self._row_at] = np.arange(self._row_at.size)
        col_of = np.full((nn, 1, w), -1)
        col_of.ravel()[self._col_at] = np.arange(self._col_at.size)
        row_of, col_of = np.broadcast_arrays(row_of, col_of)
        self._at = np.flatnonzero((row_of >= 0) & (col_of >= 0))
        self._rows, self._cols = row_of.ravel()[self._at], col_of.ravel()[self._at]
        # the constant part at those positions, so that each
        # `reduced_jacobian` call rewrites them whole
        self._base = self._jac[self._rows, self._cols]

    def initial_guess(self) -> np.ndarray:
        spec, nn = self.spec, self.nn
        x = np.zeros(self.num_unknowns)
        frac = np.linspace(0.0, 1.0, nn)
        for i in range(spec.n):
            qa = spec.q_start[i]
            qb = spec.q_end[i]
            profile = np.full(nn, qa) if qb is None else qa + (qb - qa) * frac
            segment = profile[1:] if self.free_end[i] else profile[1:-1]
            x[self.q_slices[i]] = segment
        return x

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        spec, nn = self.spec, self.nn
        q = np.empty((nn, spec.n))
        for i in range(spec.n):
            q[0, i] = spec.q_start[i]
            seg = x[self.q_slices[i]]
            if self.free_end[i]:
                q[1:, i] = seg
            else:
                q[1:-1, i] = seg
                q[-1, i] = spec.q_end[i]
        p = x[self.p_offset:self.num_qp].reshape(spec.n, nn).T
        u = x[self.num_qp:].reshape(spec.m, nn).T
        return q, u, p

    def residual(self, x: np.ndarray) -> np.ndarray:
        """The collocated equations: the state, adjoint and transversality
        rows first (the rows of K), then stationarity, which pairs with the
        trailing control unknowns."""
        spec = self.spec
        q, u, p = self.unpack(x)
        state, adjoint, stationarity = collocation_arrays(spec, self.grid, q, u, p)
        parts = [
            state[1:].T.ravel(),          # nodes 1..N per component
            adjoint[:-1].T.ravel(),       # nodes 0..N-1 per component
        ]
        if any(self.free_end):
            trans = self._trans @ p[-2:]
            parts.append(trans[list(self.free_end)])
        parts.append(stationarity.T.ravel())  # every node per component
        return np.concatenate(parts)

    def reduced_jacobian(self, x: np.ndarray) -> np.ndarray:
        """K = J_xx - J_xu H_uu^-1 J_ux at x, with x = (q, p): the exact
        Newton matrix with the controls eliminated node by node.

        Stationarity at a node involves only the unknowns at that node, so
        the elimination changes only K's node blocks.  H_uu^-1 and the
        gain H_uu^-1 J_ux are kept for `newton_step`.  The matrix belongs
        to the instance and is overwritten by the next call.  Raises
        LinAlgError when a second partial is not finite or H_uu is
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
        self._jac[self._rows, self._cols] = self._base + blocks.ravel()[self._at]
        return self._jac

    def newton_step(self, x: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The Newton step at x for its residual f: solve
        K dx = -(f_x - J_xu H_uu^-1 f_u), then du = -H_uu^-1 (f_u + J_ux dx)
        node by node."""
        spec, nn, nq = self.spec, self.nn, self.num_qp
        w = 2 * spec.n
        jac = self.reduced_jacobian(x)
        huu_f_u = self._huu_inv @ f[nq:].reshape(spec.m, nn).T[:, :, None]
        rhs = f[:nq].copy()
        rhs[:self._row_at.size] -= (self._hess[:, :w, w:] @ huu_f_u).ravel()[self._row_at]
        dx = np.linalg.solve(jac, -rhs)
        at_nodes = np.zeros((nn, w, 1))
        at_nodes.ravel()[self._col_at] = dx
        du = -(huu_f_u + self._gain @ at_nodes)[:, :, 0]
        return np.concatenate([dx, du.T.ravel()])

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
        lam = opts.step_damping
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
        if grid.a != spec.a or grid.b != spec.b:
            raise ValueError("study grids must share the problem interval")
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
