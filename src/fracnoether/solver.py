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
is minus the left Caputo operator in the state rows, minus the right RL
operator (with the boundary-kernel column on p_N) in the adjoint rows, the
two end weights of the order 1-alpha integral in the transversality rows
and one unit entry per prescribed value, alone in its column.  The rest
sits on the diagonal node blocks: the second partials of H with the
elimination applied, re-evaluated at every iterate on the nodes where both
their equation and their unknown live.  K is applied without a matrix
(`_Collocation.apply`): the `fracops` FFT applies plus the node blocks.

The step in x solves K dx = -rhs by restarted GMRES (Saad & Schultz, SIAM
J. Sci. Stat. Comput. 7, 1986), preconditioned on the right by P:

  * alpha < 1: P is K without the adjoint rows' q columns.  Its adjoint
    rows hold only p, upper triangular with p_N as a border, and its
    state rows, given p, are lower triangular in q.  P^-1 is two sweeps
    over blocks of nodes, each with the inverses of its diagonal blocks
    formed once per step and the history taken from the L1 generating
    vector (the triangular Toeplitz structure of Ke, Ng & Sun, J. Comput.
    Phys. 303, 2015), and a small solve for the node-N unknowns.  On
    problems whose H has no q-q second partial, P = K.
  * alpha = 1: the stencils make K banded (2 nodes either side), so
    P = K, factored exactly by a QR on panels of the band: Householder
    reflections need no pivoting where K's node blocks are singular, and
    each panel is one LAPACK call.

GMRES stops once the 2-norm of its residual, which bounds the Newton
residual an undamped step leaves on a linear problem, is below a fixed
fraction of `residual_tolerance`.  Its inner products are numpy
reductions, so a step does not depend on the BLAS thread count.  The
control step follows node by node, exactly 0 in a prescribed slot.  The
step is damped by halving on non-decrease, down to a floor step that is
taken even when it does not decrease the residual.  A trial that leaves
the domain of the problem's expressions, or whose residual is not
finite, is never taken: if the floor trial is such a trial too, the
solve stops unconverged at its best iterate.  Everything is deterministic:
fixed iteration order, fixed damping schedule, no randomness.  Every
numeric failure of a solve is raised as `SolveError`; a non-finite second
partial, a singular H_uu, a singular block of P or a non-finite GMRES
value counts as a singular Jacobian.

Every array of a solve is O(N), so a size whose working set (Krylov basis,
sweep blocks or QR panels, FFT buffers) would pass a fixed 4 GiB is refused
before anything is allocated (`check_solve_size`).  The sweeps' history
costs O(N^2) time per GMRES iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from math import gamma

import numpy as np

from .expr import DomainError
from .fracops import (
    FractionalOrder,
    Grid,
    SampledPath,
    _apply_caputo_left,
    _apply_rl_right,
    _integral_end_weights,
    _kernel,
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
    """Raised when the Newton step cannot be solved for: a non-finite
    second partial of H, a singular H_uu at some node, a singular block of
    the preconditioner or a non-finite GMRES value."""

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

# GMRES: basis vectors kept before a restart, iterations per Newton step,
# and its residual target as a fraction of the Newton tolerance
_RESTART = 30
_MAX_KRYLOV = 4 * _RESTART
_KRYLOV_FORCING = 1e-3

# nodes per diagonal block of the preconditioner's sweeps, and per panel
# of the band QR at alpha = 1
_BLOCK = 32
_PANEL_NODES = 8

# bytes the solver's working set may take; fixed, so that a size is
# refused alike on every machine
_SOLVE_BYTES_CAP = 4 * 2**30


def check_solve_size(spec: ProblemSpec, grid: Grid) -> int:
    """Bytes of the solver's working set on `grid`; raises ValueError when
    they would pass the fixed 4 GiB cap (`check_working_set`)."""
    return check_working_set(spec.order, spec.n, spec.m, grid.num_intervals)


def check_working_set(order: FractionalOrder, n: int, m: int, num_intervals: int) -> int:
    """Bytes of the solver's working set for n states and m controls on
    `num_intervals` intervals; raises ValueError above the fixed 4 GiB cap.

    Per node, with w = 2n, it holds in doubles: the GMRES basis and its
    preconditioned images, 2 (restart + 1) vectors of w entries; the FFT
    buffers of the operator applies, 16 per entry; the second partials
    of H, the eliminated blocks and the gain, (w + m)^2 each.  For alpha
    < 1 add the sweeps' diagonal blocks, formed and inverted (B n^2 each
    twice per sweep), and their border responses; for alpha = 1 the band
    QR's panels (3g per row, twice), Q (4g), R (3g) and R's inverted
    diagonal blocks (g), for panels of g = 8w rows, and the probes that
    read off the band.
    """
    w = 2 * n
    per_node = 2 * (_RESTART + 1) * w + 16 * w + 3 * (w + m) ** 2
    if order.is_classical:
        per_node += 14 * _PANEL_NODES * w * w + 2 * (4 * w + 1) * w
    else:
        per_node += 4 * _BLOCK * n * n + 2 * w * n
    need = 8 * (num_intervals + 1) * per_node
    if need > _SOLVE_BYTES_CAP:
        raise ValueError(
            f"grid N={num_intervals} needs {need:,} bytes of solver working set "
            f"(Krylov basis, sweep and FFT buffers), above the solver's fixed "
            f"{_SOLVE_BYTES_CAP // 2**30} GiB cap"
        )
    return need


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
        check_solve_size(spec, grid)
        self.spec = spec
        self.grid = grid
        self.nn = nn = grid.num_nodes
        self.num_qp = 2 * spec.n * nn
        self.num_unknowns = self.num_qp + spec.m * nn
        self.fixed_end = np.array([e is not None for e in spec.q_end])
        # the prescribed values of q at (a, b), nan at a free end
        self._ends = np.array([spec.q_start, [math.nan if e is None else e for e in spec.q_end]])
        # (p_{N-1}, p_N) weights of the transversality equation
        self._trans = _integral_end_weights(grid, 1.0 - spec.alpha)
        self._second_partials(spec.partials.hessian)
        if spec.order.is_classical:
            self._panels = self._operator_panels()
        else:
            self._toeplitz_rows()

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

    def _toeplitz_rows(self) -> None:
        """The constants of the sweeps for alpha < 1.

        With the nodes of the state rows 1..N-1 in order, or those of the
        adjoint rows N-1..0 reversed, K's operator part is one lower
        triangular Toeplitz matrix: minus the L1 Caputo matrix, whose row
        i weights f_j, 1 <= j <= i, by c a_{i-j} (a_0 = b_0,
        a_l = b_l - b_{l-1}) and f_0 by -c b_{i-1}.  `_coef` is its
        generating vector, zero padded for the last block's history;
        `_border` is the column of p_N in the adjoint rows N-1..0: the f_0
        weight and the boundary kernel.
        """
        grid, alpha, n_int = self.grid, self.spec.alpha, self.grid.num_intervals
        b = _kernel("l1", n_int, alpha)[0]
        c = grid.h ** (-alpha) / gamma(2.0 - alpha)
        length = -(-n_int // _BLOCK) * _BLOCK
        self._coef = np.zeros(length + _BLOCK)
        self._coef[0] = -c * b[0]
        self._coef[1:n_int] = -c * (b[1:] - b[:-1])
        # row i of a block's history on the nodes before it, latest first
        self._window = np.lib.stride_tricks.sliding_window_view(self._coef[1:], length)
        self._border = c * b - _right_boundary_kernel(grid, alpha)[-2::-1]

    def _operator(self, v: np.ndarray) -> np.ndarray:
        """K's constant part applied to the columns of v, an (N+1, 2n, k)
        array of node-major vectors."""
        n, nn, grid, alpha = self.spec.n, self.nn, self.grid, self.spec.alpha
        q = v[:, :n].copy()
        # a prescribed value enters only its own "slot - value" row
        q[0] = 0.0
        q[-1, self.fixed_end] = 0.0
        out = np.empty_like(v)
        out[:, :n] = -_apply_caputo_left(q.reshape(nn, -1), grid, alpha).reshape(q.shape)
        out[:, n:] = -_apply_rl_right(v[:, n:].reshape(nn, -1), grid, alpha).reshape(q.shape)
        out[0, :n] = v[0, :n]
        trans = self._trans[0] * v[-2, n:] + self._trans[1] * v[-1, n:]
        out[-1, n:] = np.where(self.fixed_end[:, None], v[-1, :n], trans)
        return out

    def _operator_panels(self) -> np.ndarray:
        """K's constant part at alpha = 1, cut into panels of the rows of
        `_PANEL_NODES` nodes: panel p, of g rows, holds its rows on the
        columns of panels p-1, p and p+1, as a (P, g, 3g) array.

        The stencils reach two nodes either side, so K has kl = 4n bands
        on each side of its diagonal and is block tridiagonal in panels.
        Columns 2 kl + 1 apart never share a row, so one operator apply per
        residue class mod 2 kl + 1 reads off every entry (Curtis, Powell &
        Reid, J. Inst. Math. Appl. 13, 1974).  Rows past the last node pad
        the last panel with unit diagonals.
        """
        w = 2 * self.spec.n
        size, kl, g = self.num_qp, 2 * w, _PANEL_NODES * w
        colors = 2 * kl + 1
        probes = np.arange(size)[:, None] % colors == np.arange(colors)
        seen = self._operator(probes.astype(float).reshape(self.nn, w, colors)).reshape(size, -1)
        count = -(-size // g)
        panels = np.zeros((count, g, 3 * g))
        rows = panels.reshape(count * g, 3 * g)
        r = np.arange(size)
        for offset in range(-kl, kl + 1):
            c = r + offset
            ok = (c >= 0) & (c < size)
            rows[r[ok], g + r[ok] % g + offset] = seen[r[ok], c[ok] % colors]
        pad = np.arange(size, count * g)
        panels[pad // g, pad % g, g + pad % g] = 1.0
        return panels

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

    def node_blocks(self, x: np.ndarray) -> np.ndarray:
        """K's diagonal node blocks at x, the second partials of H with the
        controls eliminated: J_xx - J_xu H_uu^-1 J_ux node by node.

        Stationarity at a node involves only the unknowns at that node, so
        the elimination changes only these (N+1, 2n, 2n) blocks.  H_uu^-1
        and the gain H_uu^-1 J_ux are kept for `newton_step`.  The blocks
        belong to the instance and are overwritten by the next call.
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
        self.blocks = hess[:, :w, :w] - hess[:, :w, w:] @ self._gain
        if not (np.isfinite(self._huu_inv).all() and np.isfinite(self.blocks).all()):
            raise np.linalg.LinAlgError("non-finite eliminated block")
        return self.blocks

    def apply(self, v: np.ndarray) -> np.ndarray:
        """K v for a vector over the (q, p) slots, at the last node blocks."""
        v = v.reshape(self.nn, -1, 1)
        return (self._operator(v) + self.blocks @ v).ravel()

    def factor(self) -> None:
        """Prepare P^-1 at the last node blocks (see the module docstring).

        For alpha < 1: the inverted diagonal blocks of both sweeps, the
        response (zp, zq) of p at nodes 0..N-1 and q at nodes 1..N-1 to a
        unit p_N, and the inverse of the small system that fixes the
        node-N unknowns, q_N at a free end and p_N: the state rows at
        node N and the transversality rows of the free ends.
        """
        # the last step's factors go first, so that two never coexist
        self._factors = None
        n, w = self.spec.n, 2 * self.spec.n
        if self.spec.order.is_classical:
            panels = self._panels.copy()
            count, g = panels.shape[:2]
            blocks = np.zeros((count * _PANEL_NODES, w, w))
            blocks[:self.nn] = self.blocks
            _add_node_blocks(panels[:, :, g:2 * g], blocks)
            self._factors = _panel_qr(panels)
            return
        free = ~self.fixed_end
        nf = int(free.sum())
        blocks, coef = self.blocks, self._coef
        q_inv = _sweep_inverses(coef, blocks[1:-1, :n, :n])
        p_inv = _sweep_inverses(coef, blocks[-2::-1, n:, n:])
        zp = _sweep(self._window, p_inv, -self._border[:, None, None] * np.eye(n))[::-1]
        zq = _sweep(self._window, q_inv, -blocks[1:-1, :n, n:] @ zp[1:])
        end = blocks[-1, :n]
        border = np.zeros((n + nf, n + nf))
        border[:n, :nf] = (coef[0] * np.eye(n) + end[:, :n])[:, free]
        border[:n, nf:] = self._history(zq) + end[:, n:]
        border[n:, nf:] = (self._trans[0] * zp[-1] + self._trans[1] * np.eye(n))[free]
        self._factors = q_inv, p_inv, zp, zq, np.linalg.inv(border)

    def _history(self, q: np.ndarray) -> np.ndarray:
        """The Toeplitz part of the state rows at node N on q at nodes
        1..N-1."""
        return np.einsum("j,j...->...", self._coef[self.nn - 2:0:-1], q)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """P^-1 r at the last `factor`."""
        if self.spec.order.is_classical:
            return _panel_solve(self._factors, r)
        q_inv, p_inv, zp, zq, border_inv = self._factors
        n, nn, fixed = self.spec.n, self.nn, self.fixed_end
        r = r.reshape(nn, 2 * n)
        q = np.empty((nn, n))
        p = np.empty((nn, n))
        p[:-1] = _sweep(self._window, p_inv, r[-2::-1, n:])[::-1]
        coupling = self.blocks[1:-1, :n, n:] @ p[1:-1, :, None]
        q[1:-1] = _sweep(self._window, q_inv, r[1:-1, :n] - coupling[..., 0])
        # the node-N unknowns from their rows, then their share everywhere
        end = np.concatenate([r[-1, :n] - self._history(q[1:-1]),
                              (r[-1, n:] - self._trans[0] * p[-2])[~fixed]])
        z = border_inv @ end
        q[-1, ~fixed] = z[:n - fixed.sum()]
        p[-1] = z[n - fixed.sum():]
        p[:-1] += zp @ p[-1]
        q[1:-1] += zq @ p[-1]
        q[0] = r[0, :n]
        q[-1, fixed] = r[-1, n:][fixed]
        return np.concatenate([q, p], axis=1).ravel()

    def newton_step(self, x: np.ndarray, f: np.ndarray,
                    tolerance: float = SolverOptions.residual_tolerance) -> np.ndarray:
        """The Newton step at x for its residual f: solve
        K dx = -(f_x - J_xu H_uu^-1 f_u) by GMRES to a residual of
        `_KRYLOV_FORCING * tolerance`, then du = -H_uu^-1 (f_u + J_ux dx)
        node by node."""
        nn, nq, w = self.nn, self.num_qp, 2 * self.spec.n
        self.node_blocks(x)
        self.factor()
        huu_f_u = self._huu_inv @ f[nq:].reshape(nn, -1, 1)
        rhs = f[:nq].reshape(nn, w, 1) - self._hess[:, :w, w:] @ huu_f_u
        dx = _gmres(self.apply, self.precondition, -rhs.ravel(), _KRYLOV_FORCING * tolerance)
        du = -(huu_f_u + self._gain @ dx.reshape(nn, w, 1))
        return np.concatenate([dx, du.ravel()])

    def extremal(self, x: np.ndarray) -> Extremal:
        q, u, p = self.unpack(x)
        return Extremal(
            q=SampledPath(self.grid, q),
            u=SampledPath(self.grid, u),
            p=SampledPath(self.grid, p),
        )


def _sweep_inverses(coef: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Inverses of the diagonal blocks of T (x) I_n + blockdiag(diag), for
    T lower triangular Toeplitz with first column `coef` and `diag` of
    shape (L, n, n), in blocks of `_BLOCK` nodes.  Nodes past L pad the
    last block with unit diagonals.  Raises LinAlgError when a block is
    singular."""
    size, n = diag.shape[:2]
    count = -(-size // _BLOCK)
    pad = np.zeros((count * _BLOCK, n, n))
    pad[:size] = diag
    pad[size:] = (1.0 - coef[0]) * np.eye(n)
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    toeplitz = np.where(lag >= 0, coef[np.maximum(lag, 0)], 0.0)
    mat = np.kron(toeplitz, np.eye(n))
    mat = np.repeat(mat[None], count, axis=0)
    _add_node_blocks(mat, pad)
    return np.linalg.inv(mat)


def _add_node_blocks(mat: np.ndarray, blocks: np.ndarray) -> None:
    """Add the (n, n) blocks of consecutive nodes, shape (count * G, n, n),
    to the node-diagonal of the (count, G n, G n) node-major matrices
    `mat`, in place."""
    count, n = mat.shape[0], blocks.shape[1]
    size = mat.shape[1] // n
    nodes = np.arange(size)
    diagonal = mat.reshape(count, size, n, size, n)
    diagonal[:, nodes, :, nodes, :] += blocks.reshape(count, size, n, n).transpose(1, 0, 2, 3)


def _sweep(window: np.ndarray, inverses: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the system of `_sweep_inverses` for rhs of shape (L, n, ...),
    block by block.

    A block's history, the rows of T on every earlier node, is read from
    `window`, the view window[i, m] = coef[1 + i + m] of the generating
    vector: a Toeplitz view, never a stored table.  The solution so far
    is kept component by component with the nodes reversed, so that the
    history is a sum over contiguous runs of both; `einsum` sums it in an
    order that does not depend on the BLAS thread count.
    """
    size, count, width = rhs.shape[0], inverses.shape[0], inverses.shape[1]
    total = count * _BLOCK
    padded = np.zeros((total,) + rhs.shape[1:])
    padded[:size] = rhs
    padded = padded.reshape(total, -1)
    done = np.empty((padded.shape[1], total))
    for k in range(count):
        start = k * _BLOCK
        block = padded[start:start + _BLOCK]
        if start:
            block = block - np.einsum("ij,kj->ik", window[:, :start], done[:, total - start:])
        block = (inverses[k] @ block.reshape(width, -1)).reshape(_BLOCK, -1)
        done[:, total - start - _BLOCK:total - start] = block[::-1].T
    return done[:, ::-1].T[:size].reshape(rhs.shape)


def _panel_qr(panels: np.ndarray) -> tuple:
    """QR factorization of a block tridiagonal matrix given as the panel
    rows of `_Collocation._operator_panels`.

    Panel p's column, the running rows of panel p over panel p+1's rows,
    is reduced by one Householder QR (a LAPACK call): orthogonal
    elimination, stable without pivoting.  Returns the transposed Q of
    each step, R's panel rows (diagonal block and the two to its right)
    and the inverses of R's diagonal blocks; raises LinAlgError when one
    of those is singular.
    """
    count, g = panels.shape[:2]
    q_t = np.empty((count, 2 * g, 2 * g))
    upper = np.empty((count, g, 3 * g))
    top = np.zeros((g, 3 * g))
    top[:, :2 * g] = panels[0, :, g:]
    below = np.zeros((g, 3 * g))
    for p in range(count):
        stack = np.concatenate([top, panels[p + 1] if p + 1 < count else below])
        q_t[p] = np.linalg.qr(stack[:, :g], mode="complete")[0].T
        stack = q_t[p] @ stack
        upper[p] = stack[:g]
        top = np.zeros((g, 3 * g))
        top[:, :2 * g] = stack[g:, g:]
    return q_t, upper, np.linalg.inv(upper[:, :, :g])


def _panel_solve(qr: tuple, r: np.ndarray) -> np.ndarray:
    """Solve with the factors of `_panel_qr`: apply each step's Q^T, then
    back-substitute panel by panel."""
    q_t, upper, inverses = qr
    count, g = upper.shape[:2]
    y = np.zeros((count + 2) * g)
    y[:r.size] = r
    for p in range(count):
        y[p * g:(p + 2) * g] = q_t[p] @ y[p * g:(p + 2) * g]
    x = np.zeros_like(y)
    for p in range(count - 1, -1, -1):
        rest = y[p * g:(p + 1) * g] - upper[p, :, g:] @ x[(p + 1) * g:(p + 3) * g]
        x[p * g:(p + 1) * g] = inverses[p] @ rest
    return x[:r.size]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.add.reduce(a * b))


def _gmres(apply, precondition, b: np.ndarray, tol: float,
           restart: int = _RESTART, max_iter: int = _MAX_KRYLOV) -> np.ndarray:
    """Right-preconditioned restarted GMRES: x with ||b - A x||_2 <= tol,
    for A and M^-1 given as functions, or the last iterate after
    `max_iter` iterations.

    Arnoldi by modified Gram-Schmidt, the least-squares problem by Givens
    rotations; the preconditioned basis is kept, so each iteration costs
    one apply and one preconditioning.  Inner products are numpy
    reductions.  Raises LinAlgError on a non-finite value.
    """
    x = np.zeros_like(b)
    r = b
    beta = math.sqrt(_dot(r, r))
    done = 0
    while beta > tol and done < max_iter:
        basis = np.empty((restart + 1, b.size))
        images = np.empty((restart, b.size))
        hess = np.zeros((restart + 1, restart))
        rot = np.zeros((restart, 2))
        g = np.zeros(restart + 1)
        basis[0] = r / beta
        g[0] = beta
        for j in range(min(restart, max_iter - done)):
            images[j] = precondition(basis[j])
            w = apply(images[j])
            for i in range(j + 1):
                hess[i, j] = _dot(w, basis[i])
                w = w - hess[i, j] * basis[i]
            norm = math.sqrt(_dot(w, w))
            hess[j + 1, j] = norm
            if not np.isfinite(hess[:j + 2, j]).all():
                raise np.linalg.LinAlgError("non-finite GMRES value")
            for i in range(j):
                c, s = rot[i]
                top, bottom = hess[i, j], hess[i + 1, j]
                hess[i, j], hess[i + 1, j] = c * top + s * bottom, c * bottom - s * top
            rho = math.hypot(hess[j, j], norm)
            c, s = (hess[j, j] / rho, norm / rho) if rho else (1.0, 0.0)
            rot[j] = c, s
            hess[j, j], hess[j + 1, j] = rho, 0.0
            g[j], g[j + 1] = c * g[j], -s * g[j]
            done += 1
            if abs(g[j + 1]) <= tol or norm == 0.0:
                break
            basis[j + 1] = w / norm
        k = j + 1
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            if hess[i, i] == 0.0:
                raise np.linalg.LinAlgError("singular GMRES least-squares problem")
            y[i] = (g[i] - _dot(hess[i, i + 1:k], y[i + 1:])) / hess[i, i]
        x = x + np.add.reduce(y[:, None] * images[:k], axis=0)
        if abs(g[k]) <= tol:
            break
        r = b - apply(x)
        beta = math.sqrt(_dot(r, r))
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("non-finite GMRES value")
    return x


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
    runs out or no line-search trial down to the damping floor stays in
    the domain with a finite residual; raises SingularJacobianError when a
    second partial of H is not finite, H_uu or a block of the
    preconditioner is singular or GMRES meets a non-finite value, and
    SolveError with the message of the expr.DomainError when the initial
    guess or a Newton matrix leaves the domain of the problem's
    expressions.
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
            step = colloc.newton_step(x, f, opts.residual_tolerance)
        except np.linalg.LinAlgError:
            raise SingularJacobianError(iterations + 1) from None
        lam = 1.0
        while True:
            x_try = x + lam * step
            try:
                f_try = colloc.residual(x_try)
                norm_try = _residual_norm(f_try)   # inf when not finite
            except DomainError:
                norm_try = math.inf   # outside the domain: never taken
            if norm_try < norm or lam <= _DAMPING_FLOOR:
                break
            lam *= 0.5
        if norm_try == math.inf:
            break   # even the floor step was rejected: keep the best iterate
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


# perfbench/tracing.py and perfbench/baseline.py patch `solver._fd_jacobian`
# as the Jacobian phase; this name, the per-iterate node-block assembly,
# keeps those benchmark files working.  Nothing in the package calls it.
_fd_jacobian = _Collocation.node_blocks
