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
control values, and all adjoint values including p_N, which stays coupled
through every right-sided evaluation; the count is exactly square.

The Newton matrix is the exact Jacobian of that residual.  Its constant
part is minus the left Caputo matrix in the state rows, minus the right RL
matrix (with the boundary-kernel column on p_N) in the adjoint rows and the
two end weights of the order 1-alpha integral in the transversality rows;
it is filled once per solve by indexing the L1 generating vector by lag
(a stencil at alpha = 1).  The rest is pointwise: the second partials of H
sit on the diagonals of the node blocks and are re-evaluated at every
iterate.  The Newton step is damped by halving on non-decrease.
Everything is deterministic: fixed iteration order, fixed damping
schedule, no randomness.  Every numeric failure of a solve is raised as
`SolveError`.

The Newton matrix is dense, so a size whose matrix plus the copy LAPACK
factorizes would pass a fixed 4 GiB is refused before anything is
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
    """Raised when the Newton matrix cannot be factorized."""

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

# bytes the dense Newton matrix and the copy LAPACK factorizes may take
# together; fixed, so that a size is refused alike on every machine
_NEWTON_BYTES_CAP = 4 * 2**30


def check_newton_size(spec: ProblemSpec, grid: Grid) -> int:
    """Number of unknowns of the collocated system on `grid`; raises
    ValueError when its dense Newton matrix plus the LAPACK copy
    (unknowns^2 * 8 * 2 bytes) would pass the fixed 4 GiB cap."""
    free = sum(e is None for e in spec.q_end)
    unknowns = (2 * spec.n + spec.m) * grid.num_nodes - 2 * spec.n + free
    need = unknowns * unknowns * 8 * 2
    if need > _NEWTON_BYTES_CAP:
        raise ValueError(
            f"grid N={grid.num_intervals} needs a {unknowns}x{unknowns} Newton matrix: "
            f"{need / 2**30:.1f} GiB with its LAPACK copy, above the solver's fixed "
            f"{_NEWTON_BYTES_CAP // 2**30} GiB cap"
        )
    return unknowns


@dataclass(frozen=True)
class SolveOutcome:
    extremal: Extremal
    iterations: int
    final_residual: float
    converged: bool


class _Collocation:
    """Packs unknowns, assembles the residual vector and its Jacobian."""

    def __init__(self, spec: ProblemSpec, grid: Grid):
        if grid.a != spec.a or grid.b != spec.b:
            raise ValueError("grid interval does not match the problem interval")
        self.num_unknowns = check_newton_size(spec, grid)
        self.spec = spec
        self.grid = grid
        self.nn = grid.num_nodes
        n, m = spec.n, spec.m
        self.free_end = tuple(e is None for e in spec.q_end)
        # unknown layout: per-component interior q (+ q_N when free),
        # then all of u, then all of p
        self.q_slices = []
        offset = 0
        for i in range(n):
            size = self.nn - 2 + (1 if self.free_end[i] else 0)
            self.q_slices.append(slice(offset, offset + size))
            offset += size
        self.u_offset = offset
        offset += m * self.nn
        self.p_offset = offset
        # (p_{N-1}, p_N) weights of the transversality equation
        self._trans = _integral_end_weights(grid, 1.0 - spec.alpha)
        self._jac = self._operator_part()
        self._second_partials(spec.partials.hessian)

    def _operator_part(self) -> np.ndarray:
        """The constant part of the Jacobian, in the residual's row order."""
        spec, grid, nn = self.spec, self.grid, self.nn
        n, rows_per = spec.n, nn - 1
        p_cols = [slice(self.p_offset + i * nn, self.p_offset + (i + 1) * nn) for i in range(n)]
        jac = np.zeros((self.num_unknowns, self.num_unknowns))
        for i in range(n):
            state = jac[i * rows_per:(i + 1) * rows_per, self.q_slices[i]]
            _caputo_left_rows(state, grid, spec.alpha, first=1)
            np.negative(state, out=state)
            adjoint = jac[(n + i) * rows_per:(n + i + 1) * rows_per, p_cols[i]]
            _caputo_left_rows(adjoint[::-1, ::-1], grid, spec.alpha, first=0)
            np.negative(adjoint, out=adjoint)
            if not spec.order.is_classical:
                adjoint[:, -1] -= _right_boundary_kernel(grid, spec.alpha)[:-1]
        row = 2 * n * rows_per + spec.m * nn
        for i in range(n):
            if self.free_end[i]:
                jac[row, p_cols[i].stop - 2:p_cols[i].stop] = self._trans
                row += 1
        return jac

    def _second_partials(self, hessian: dict) -> None:
        """Place each second partial of H on the diagonal of its node block.

        A pair is evaluated only on the nodes where its row equation and
        its column unknown both live, so a fixed endpoint value never
        enters a second partial.
        """
        spec, nn = self.spec, self.nn
        rows_per = nn - 1
        # (variable x, first row, node range) of the rows holding dH/dx
        row_blocks = (
            [(x, i * rows_per, 1, nn) for i, x in enumerate(adjoint_names(spec.n))]
            + [(x, (spec.n + i) * rows_per, 0, nn - 1) for i, x in enumerate(state_names(spec.n))]
            + [(x, 2 * spec.n * rows_per + j * nn, 0, nn) for j, x in enumerate(control_names(spec.m))]
        )
        # (variable y, first column, node range) of the unknowns of y
        col_blocks = (
            [(y, s.start, 1, 1 + s.stop - s.start) for y, s in zip(state_names(spec.n), self.q_slices)]
            + [(y, self.u_offset + j * nn, 0, nn) for j, y in enumerate(control_names(spec.m))]
            + [(y, self.p_offset + i * nn, 0, nn) for i, y in enumerate(adjoint_names(spec.n))]
        )
        self._terms, rows, cols = [], [], []
        for x, row0, row_lo, row_hi in row_blocks:
            for y, col0, col_lo, col_hi in col_blocks:
                if (x, y) in hessian:
                    lo, hi = max(row_lo, col_lo), min(row_hi, col_hi)
                    self._terms.append((hessian[x, y], slice(lo, hi)))
                    rows.extend(range(row0 + lo - row_lo, row0 + hi - row_lo))
                    cols.extend(range(col0 + lo - col_lo, col0 + hi - col_lo))
        self._rows, self._cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
        # the constant part at those positions, so that each `jacobian`
        # call rewrites them whole instead of adding to the last iterate's
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
        u = x[self.u_offset:self.p_offset].reshape(spec.m, nn).T
        p = x[self.p_offset:].reshape(spec.n, nn).T
        return q, u, p

    def residual(self, x: np.ndarray) -> np.ndarray:
        spec = self.spec
        q, u, p = self.unpack(x)
        state, adjoint, stationarity = collocation_arrays(spec, self.grid, q, u, p)
        parts = [
            state[1:].T.ravel(),          # nodes 1..N per component
            adjoint[:-1].T.ravel(),       # nodes 0..N-1 per component
            stationarity.T.ravel(),       # every node per component
        ]
        if any(self.free_end):
            trans = self._trans @ p[-2:]
            parts.append(trans[list(self.free_end)])
        return np.concatenate(parts)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Exact Jacobian of `residual` at x.  The matrix belongs to the
        instance and is overwritten by the next call."""
        bindings = path_bindings(self.grid, *self.unpack(x))
        values = [
            eval_stack([second], {k: v[nodes] for k, v in bindings.items()},
                       nodes.stop - nodes.start)[:, 0]
            for second, nodes in self._terms
        ]
        if values:
            self._jac[self._rows, self._cols] = self._base + np.concatenate(values)
        return self._jac

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
    runs out; raises SingularJacobianError when the Newton matrix has a
    non-finite entry or cannot be factorized, and SolveError with the
    message of the expr.DomainError when an iterate leaves the domain of
    the problem's expressions.
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
        jac = colloc.jacobian(x)
        if not np.isfinite(jac).all():
            raise SingularJacobianError(iterations + 1)
        try:
            step = np.linalg.solve(jac, -f)
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
# `_Collocation.jacobian` instead.  Nothing in the package calls it.
_fd_jacobian = _Collocation.jacobian


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
