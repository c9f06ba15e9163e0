"""Discrete left/right Riemann-Liouville and Caputo derivatives and the
right fractional integral on uniformly sampled paths.

Caputo derivatives of order 0 < alpha < 1 use the L1 scheme (piecewise
linear interpolation of the path inside the convolution, accuracy order
2 - alpha).  Riemann-Liouville derivatives are obtained from the Caputo
value plus the boundary term f(a) (t-a)^(-alpha) / gamma(1-alpha) (and
its mirror image), which avoids differentiating a singular kernel; the
endpoint node where that term blows up is flagged `singular` instead of
storing an infinity.  At alpha = 1 every operator reduces exactly to
second-order classical finite differences (central stencils inside,
one-sided at the ends).

All schemes are assembled from first differences of the samples, so any
constant path has an exactly zero Caputo derivative, bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .special import gamma


@dataclass(frozen=True)
class FractionalOrder:
    """Differentiation order alpha restricted to (0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        a = self.alpha
        if not (isinstance(a, (int, float)) and math.isfinite(a) and 0.0 < a <= 1.0):
            raise ValueError(f"fractional order must lie in (0, 1], got {a!r}")
        object.__setattr__(self, "alpha", float(a))

    @property
    def is_classical(self) -> bool:
        return self.alpha == 1.0


@dataclass(frozen=True)
class Grid:
    """Uniform mesh t_j = a + j h, j = 0..N, with h = (b - a) / N."""

    a: float
    b: float
    num_intervals: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"grid needs finite a < b, got a={self.a}, b={self.b}")
        if int(self.num_intervals) != self.num_intervals or self.num_intervals < 2:
            raise ValueError(f"grid needs at least 2 intervals, got {self.num_intervals}")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "num_intervals", int(self.num_intervals))

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.num_intervals

    @property
    def num_nodes(self) -> int:
        return self.num_intervals + 1

    def nodes(self) -> np.ndarray:
        return _grid_nodes(self.a, self.b, self.num_intervals)


@lru_cache(maxsize=64)
def _grid_nodes(a: float, b: float, n: int) -> np.ndarray:
    nodes = np.linspace(a, b, n + 1)
    nodes.setflags(write=False)
    return nodes


class SampledPath:
    """Vector-valued samples aligned to a Grid, immutable after construction.

    `values` has one row per node and one column per component.  Rows
    flagged in `singular` mark nodes where the represented function has a
    non-removable endpoint singularity; the stored row then holds only the
    regular part of the value.
    """

    __slots__ = ("grid", "values", "singular")

    def __init__(self, grid: Grid, values, singular=None):
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] != grid.num_nodes:
            raise ValueError(
                f"values must have {grid.num_nodes} rows, got shape {arr.shape}"
            )
        if arr.shape[1] < 1:
            raise ValueError("path needs at least one component")
        flags = np.zeros(grid.num_nodes, dtype=bool) if singular is None else (
            np.asarray(singular, dtype=bool).copy()
        )
        if flags.shape != (grid.num_nodes,):
            raise ValueError(f"singular flags must have shape ({grid.num_nodes},)")
        if not np.all(np.isfinite(arr[~flags])):
            raise ValueError("path values must be finite at non-singular nodes")
        arr = arr.copy()
        arr.setflags(write=False)
        flags.setflags(write=False)
        self.grid = grid
        self.values = arr
        self.singular = flags

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def component(self, i: int) -> "SampledPath":
        return SampledPath(self.grid, self.values[:, i], self.singular)

    def __repr__(self) -> str:
        return (
            f"SampledPath(dim={self.dim}, N={self.grid.num_intervals}, "
            f"interval=[{self.grid.a}, {self.grid.b}])"
        )


def sample_path(grid: Grid, fn) -> SampledPath:
    """Sample a callable of the node vector into a path."""
    vals = np.asarray(fn(grid.nodes()), dtype=float)
    if vals.ndim == 0:
        vals = np.full(grid.num_nodes, float(vals))
    return SampledPath(grid, vals)


def constant_path(grid: Grid, value, dim: int | None = None) -> SampledPath:
    vals = np.atleast_1d(np.asarray(value, dtype=float))
    if dim is not None and vals.shape != (dim,):
        raise ValueError(f"expected {dim} components, got {vals.shape}")
    return SampledPath(grid, np.tile(vals, (grid.num_nodes, 1)))


def _check_pair(f: SampledPath, g: SampledPath) -> None:
    if f.grid != g.grid:
        raise ValueError("paths live on different grids")
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")


# ---------------------------------------------------------------------------
# cached weight tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _l1_toeplitz(n_intervals: int, alpha: float) -> np.ndarray:
    """Lower-triangular Toeplitz T[i, k] = b_{i-k} (k <= i) with
    b_i = (i+1)^(1-alpha) - i^(1-alpha); acts on first differences."""
    i = np.arange(n_intervals, dtype=float)
    b = (i + 1.0) ** (1.0 - alpha) - i ** (1.0 - alpha)
    rows = np.arange(n_intervals)[:, None]
    cols = np.arange(n_intervals)[None, :]
    lag = rows - cols
    t = np.where(lag >= 0, b[np.abs(lag)], 0.0)
    t.setflags(write=False)
    return t


@lru_cache(maxsize=64)
def _integral_weights(n_intervals: int, beta: float) -> np.ndarray:
    """Product-integration weights for the right fractional integral of
    order beta, exact on piecewise-linear integrands.  A[j, k] multiplies
    f_k; the result still needs the factor h^beta / gamma(beta)."""
    n = n_intervals
    r = np.arange(n, dtype=float)
    m0 = ((r + 1.0) ** beta - r ** beta) / beta
    w2 = ((r + 1.0) ** (beta + 1.0) - r ** (beta + 1.0)) / (beta + 1.0) - r * m0
    w1 = m0 - w2
    a = np.zeros((n + 1, n + 1))
    for lag in range(n):
        idx = np.arange(n - lag)
        a[idx, idx + lag] += w1[lag]
        a[idx, idx + lag + 1] += w2[lag]
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# raw array kernels (shared with the solver so both sides produce
# bitwise-identical numbers)
# ---------------------------------------------------------------------------

def _classical_diff(d: np.ndarray) -> np.ndarray:
    """h f' from the first differences d of f: central inside, one-sided
    second order at the two ends.  Constant paths give exactly zero."""
    out = np.empty((d.shape[0] + 1,) + d.shape[1:])
    out[0] = 1.5 * d[0] - 0.5 * d[1]
    out[1:-1] = 0.5 * d[:-1] + 0.5 * d[1:]
    out[-1] = 1.5 * d[-1] - 0.5 * d[-2]
    return out


def _apply_caputo_left(values: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    d = np.diff(values, axis=0)
    if alpha == 1.0:
        return _classical_diff(d) / grid.h
    out = np.zeros_like(values)
    c = grid.h ** (-alpha) / gamma(2.0 - alpha)
    out[1:] = c * (_l1_toeplitz(grid.num_intervals, alpha) @ d)
    return out


def _caputo_left_rows(out: np.ndarray, grid: Grid, alpha: float, first: int) -> None:
    """Write rows 1..N of the matrix of `_apply_caputo_left` (row 0 is
    zero), columns first .. first + out.shape[1] - 1, into a zeroed `out`.

    The right Caputo matrix is the same matrix reversed along both axes,
    so writing through a reversed view of `out` gives its rows 0..N-1.
    """
    n = grid.num_intervals
    last = first + out.shape[1]
    if alpha == 1.0:
        # the stencil of `_classical_diff` on f: central inside, one-sided at N
        r = np.arange(1, n)
        rows = np.concatenate([r, r, [n, n, n]])
        cols = np.concatenate([r - 1, r + 1, [n - 2, n - 1, n]])
        vals = np.concatenate([np.full(n - 1, -0.5), np.full(n - 1, 0.5), [0.5, -2.0, 1.5]])
        keep = (cols >= first) & (cols < last)
        out[rows[keep] - 1, cols[keep] - first] = vals[keep] / grid.h
        return
    t = _l1_toeplitz(n, alpha)
    # f_j enters the differences d_{j-1} and d_j, so its column is
    # T[:, j-1] - T[:, j], with columns -1 and N of T read as zero
    lo, hi = max(first, 1), min(last, n)
    np.subtract(t[:, lo - 1:hi - 1], t[:, lo:hi], out=out[:, lo - first:hi - first])
    if first == 0:
        np.negative(t[:, 0], out=out[:, 0])
    if last == n + 1:
        out[:, -1] = t[:, -1]
    out *= grid.h ** (-alpha) / gamma(2.0 - alpha)


def _apply_caputo_right(values: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    d = np.diff(values, axis=0)
    if alpha == 1.0:
        return -_classical_diff(d) / grid.h
    out = np.zeros_like(values)
    c = grid.h ** (-alpha) / gamma(2.0 - alpha)
    # upper-triangular Toeplitz action via the reversed lower one
    t = _l1_toeplitz(grid.num_intervals, alpha)
    out[:-1] = -c * (t @ d[::-1])[::-1]
    return out


def _left_boundary_kernel(grid: Grid, alpha: float) -> np.ndarray:
    """(t - a)^(-alpha) / gamma(1 - alpha) at nodes 1..N, zero slot at 0."""
    nodes = grid.nodes()
    k = np.zeros(grid.num_nodes)
    k[1:] = (nodes[1:] - grid.a) ** (-alpha) / gamma(1.0 - alpha)
    return k


def _right_boundary_kernel(grid: Grid, alpha: float) -> np.ndarray:
    nodes = grid.nodes()
    k = np.zeros(grid.num_nodes)
    k[:-1] = (grid.b - nodes[:-1]) ** (-alpha) / gamma(1.0 - alpha)
    return k


def _rl_endpoint_singular(values: np.ndarray, alpha: float, end: int) -> bool:
    """Whether the RL derivative anchored at node `end` (0 = a, -1 = b)
    carries the boundary term f(end) |t - t_end|^(-alpha) / gamma(1-alpha),
    which is singular at that node."""
    return alpha != 1.0 and bool(np.any(values[end] != 0.0))


def _rl_singular(f: SampledPath, alpha: float, end: int) -> np.ndarray:
    """Singular flags of the left (end = 0) or right (end = -1) RL
    derivative of f."""
    flags = np.array(f.singular)
    flags[end] |= _rl_endpoint_singular(f.values, alpha, end)
    return flags


def _apply_rl_right(values: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    out = _apply_caputo_right(values, grid, alpha)
    if _rl_endpoint_singular(values, alpha, -1):
        out = out + _right_boundary_kernel(grid, alpha)[:, None] * values[-1][None, :]
    return out


def _apply_integral_right(values: np.ndarray, grid: Grid, beta: float) -> np.ndarray:
    if beta == 0.0:
        return values.copy()
    scale = grid.h ** beta / gamma(beta)
    return scale * (_integral_weights(grid.num_intervals, beta) @ values)


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------

def _as_order(order) -> FractionalOrder:
    if isinstance(order, FractionalOrder):
        return order
    return FractionalOrder(float(order))


def caputo_deriv_left(f: SampledPath, order) -> SampledPath:
    """Left Caputo derivative of order alpha in (0, 1].

    For alpha < 1 this is the L1 discretization of the convolution of the
    kernel (t - theta)^(-alpha) with f'; the node t = a, where the
    integration window is empty, gets the value 0.  At alpha = 1 it is the
    classical derivative.  Componentwise for vector paths.
    """
    o = _as_order(order)
    vals = _apply_caputo_left(f.values, f.grid, o.alpha)
    return SampledPath(f.grid, vals, f.singular)


def caputo_deriv_right(f: SampledPath, order) -> SampledPath:
    """Right Caputo derivative, the mirror image of `caputo_deriv_left`.

    The windows run from t to b and the inner derivative carries a minus
    sign, so at alpha = 1 the operator returns -f'.
    """
    o = _as_order(order)
    vals = _apply_caputo_right(f.values, f.grid, o.alpha)
    return SampledPath(f.grid, vals, f.singular)


def rl_deriv_left(f: SampledPath, order) -> SampledPath:
    """Left Riemann-Liouville derivative.

    Computed as Caputo value + f(a) (t-a)^(-alpha) / gamma(1-alpha).  When
    f(a) != 0 the node t = a is flagged singular and its row stores only
    the regular (Caputo) part.
    """
    alpha = _as_order(order).alpha
    out = _apply_caputo_left(f.values, f.grid, alpha)
    if _rl_endpoint_singular(f.values, alpha, 0):
        out = out + _left_boundary_kernel(f.grid, alpha)[:, None] * f.values[0][None, :]
    return SampledPath(f.grid, out, _rl_singular(f, alpha, 0))


def rl_deriv_right(f: SampledPath, order) -> SampledPath:
    """Right Riemann-Liouville derivative (the operator acting on the
    adjoint variable in the fractional Hamiltonian system).

    Mirror of `rl_deriv_left`: boundary term f(b) (b-t)^(-alpha) /
    gamma(1-alpha), node t = b flagged singular when f(b) != 0.
    """
    alpha = _as_order(order).alpha
    out = _apply_rl_right(f.values, f.grid, alpha)
    return SampledPath(f.grid, out, _rl_singular(f, alpha, -1))


def rl_integral_right(f: SampledPath, order: float) -> SampledPath:
    """Right fractional integral of order beta in [0, 1].

    Piecewise-linear product integration of the kernel
    (theta - t)^(beta - 1) / gamma(beta); second-order accurate and exact
    for linear paths.  beta = 0 is the identity (the limit needed when the
    caller's derivative order alpha equals 1), beta = 1 the ordinary
    integral from t to b.
    """
    beta = float(order)
    if not (math.isfinite(beta) and 0.0 <= beta <= 1.0):
        raise ValueError(f"integral order must lie in [0, 1], got {beta!r}")
    vals = _apply_integral_right(f.values, f.grid, beta)
    return SampledPath(f.grid, vals, f.singular)
