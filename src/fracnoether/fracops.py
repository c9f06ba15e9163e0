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

On the uniform grid the L1 Caputo derivatives and the right fractional
integral are Toeplitz convolutions.  Each is kept as its O(N) generating
vector, and the rfft of that vector zero-padded to the power of two
>= 2N - 1 is cached per (kind, N, order); an apply is one causal
convolution by FFT, O(N log N) time and O(N) memory, with no N x N table.

All schemes are assembled from first differences of the samples, so any
constant path has an exactly zero Caputo derivative, bitwise: its
difference column is all zero, and the FFT transforms each column on its
own, so a zero column stays exactly zero.  A path whose differences are
all zero (every column constant) returns that zero array without a
transform; the right Caputo and right Riemann-Liouville applies go
through the left one and share this fast path.  The boundary kernel
(b - t)^(-alpha) / gamma(1 - alpha) of the right Riemann-Liouville
derivative is cached per (grid, alpha), read-only, beside the operator
kernels.

A `SampledPath` keeps its left Caputo and right Riemann-Liouville values
once they are computed (`_caputo_left_of`, `_rl_right_of`): the array the
raw kernel returned, read-only, at most one per kind and order, freed
with the path.  The verification calls in `model` and `noether` and the
public `caputo_deriv_left` and `rl_deriv_right` read them, so a path is
transformed once per kind and order however often it is checked.  A
fractional-order `verify-large` operation takes 6 FFT convolutions on a
new candidate and 3 on one it has verified before, and the checks after
the solve in `run` at N=256 take 4 on example-momentum and
example-covform and 2 on example-linear-frac.  The solver applies the
raw kernels to its own writeable arrays and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math
from math import gamma

import numpy as np


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

    Construction checks that every unflagged row is finite: it computes
    the finiteness mask once and looks at the flags only when some value
    is not finite, so an all-finite path is checked in one pass with no
    row copy.  This is the one finiteness check of verification's paths.
    Flags given to the constructor are copied; a path built without them
    gets the all-False flags shared by every such path of its node count
    (`_no_flags`), which sit on an immutable buffer and so can never be
    made writeable.

    A path keeps its left Caputo and right Riemann-Liouville values
    (`_caputo_left_of`, `_rl_right_of`): each is computed by the raw
    kernel on first use at an order and kept, read-only, for as long as
    the path lives, so a path holds at most one array of its own size per
    kind and order.  A new path, `component(i)` included, starts with
    none kept.
    """

    __slots__ = ("grid", "values", "singular", "_transforms")

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
        if singular is None:
            flags = _no_flags(grid.num_nodes)
        else:
            flags = np.asarray(singular, dtype=bool).copy()
            if flags.shape != (grid.num_nodes,):
                raise ValueError(f"singular flags must have shape ({grid.num_nodes},)")
            flags.setflags(write=False)
        finite = np.isfinite(arr)
        if not finite.all() and not finite[~flags].all():
            raise ValueError("path values must be finite at non-singular nodes")
        arr = arr.copy()
        arr.setflags(write=False)
        self.grid = grid
        self.values = arr
        self.singular = flags
        self._transforms = {}

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


@lru_cache(maxsize=64)
def _no_flags(num_nodes: int) -> np.ndarray:
    """The all-False flags every path built without flags shares: a view
    of an immutable bytes buffer, so it can never be made writeable."""
    return np.frombuffer(bytes(num_nodes), dtype=bool)


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


# ---------------------------------------------------------------------------
# operator kernels: O(N) generating vectors applied by FFT convolution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _kernel(kind: str, n_intervals: int, order: float) -> tuple[np.ndarray, ...]:
    """Generating vectors of one Toeplitz operator on N intervals, and the
    rfft of its kernel zero-padded to the power of two >= 2N - 1.

    kind "l1" (order alpha): kernel b_i = (i+1)^(1-alpha) - i^(1-alpha)
    acting on first differences; the tail is empty.

    kind "integral" (order beta): product-integration weights of the right
    fractional integral, exact on piecewise-linear integrands.  Row j <= N-1
    weights f_k (j <= k <= N-1) by c_{k-j}, with c_0 = w1_0 and
    c_l = w1_l + w2_{l-1}, and f_N by the tail w2_{N-1-j}; row N is zero.
    The result still needs the factor h^beta / gamma(beta).

    Returns (kernel, tail, kernel spectrum), all read-only.
    """
    r = np.arange(n_intervals, dtype=float)
    if kind == "l1":
        kernel = (r + 1.0) ** (1.0 - order) - r ** (1.0 - order)
        tail = np.empty(0)
    else:
        m0 = ((r + 1.0) ** order - r ** order) / order
        tail = ((r + 1.0) ** (order + 1.0) - r ** (order + 1.0)) / (order + 1.0) - r * m0
        kernel = m0 - tail
        kernel[1:] += tail[:-1]
    spectrum = np.fft.rfft(kernel, 1 << (2 * n_intervals - 2).bit_length())
    for arr in (kernel, tail, spectrum):
        arr.setflags(write=False)
    return kernel, tail, spectrum


def _convolve(spectrum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Causal convolution sum_{k <= i} kernel_{i-k} x[k] of the columns of
    x, for i < len(x), from the kernel spectrum of `_kernel`.

    Each column is transformed on its own, so an all-zero column gives
    exactly zero.
    """
    n_fft = 2 * (spectrum.shape[0] - 1)
    y = np.fft.irfft(spectrum[:, None] * np.fft.rfft(x, n_fft, axis=0), n_fft, axis=0)
    return y[:x.shape[0]]


# ---------------------------------------------------------------------------
# raw array kernels: `model`'s residual, the public operators and the
# solver's matrix-free Newton matrix apply the same ones, so all produce
# bitwise-identical numbers
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
    d = values[1:] - values[:-1]   # np.diff's subtraction, without its set-up
    if alpha == 1.0:
        return _classical_diff(d) / grid.h
    out = np.zeros_like(values)
    if not d.any():
        # constant columns: the transform would return exactly zero too
        # (a NaN difference is truthy, so non-finite input is transformed)
        return out
    c = grid.h ** (-alpha) / gamma(2.0 - alpha)
    out[1:] = c * _convolve(_kernel("l1", grid.num_intervals, alpha)[2], d)
    return out


def _apply_caputo_right(values: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    # the mirror image of the left operator: reversing the path reverses
    # and negates its differences, and the kernel is the same
    return _apply_caputo_left(values[::-1], grid, alpha)[::-1]


@lru_cache(maxsize=16)
def _right_boundary_kernel(grid: Grid, alpha: float) -> np.ndarray:
    """(b - t_j)^(-alpha) / gamma(1 - alpha) at each node, 0 at t = b;
    read-only."""
    nodes = grid.nodes()
    k = np.zeros(grid.num_nodes)
    k[:-1] = (grid.b - nodes[:-1]) ** (-alpha) / gamma(1.0 - alpha)
    k.setflags(write=False)
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


def _kept(f: SampledPath, apply, alpha: float) -> np.ndarray:
    """`apply(f.values, f.grid, alpha)`, run once per (apply, alpha) on f:
    the array the kernel returned is made read-only and kept on f."""
    key = (apply.__name__, alpha)
    out = f._transforms.get(key)
    if out is None:
        out = apply(f.values, f.grid, alpha)
        out.setflags(write=False)
        f._transforms[key] = out
    return out


def _caputo_left_of(f: SampledPath, alpha: float) -> np.ndarray:
    """Left Caputo values of f, kept on f (see `SampledPath`)."""
    return _kept(f, _apply_caputo_left, alpha)


def _rl_right_of(f: SampledPath, alpha: float) -> np.ndarray:
    """Right Riemann-Liouville values of f (regular part at a flagged
    node), kept on f (see `SampledPath`)."""
    return _kept(f, _apply_rl_right, alpha)


def _apply_integral_right(values: np.ndarray, grid: Grid, beta: float) -> np.ndarray:
    if beta == 0.0:
        return values.copy()
    _, tail, spectrum = _kernel("integral", grid.num_intervals, beta)
    out = np.zeros_like(values)
    # rows 0..N-1 are a causal convolution over f_{N-1}, ..., f_0 plus
    # the tail column on f_N, read back reversed; row N is zero
    out[:-1] = (_convolve(spectrum, values[-2::-1]) + tail[:, None] * values[-1])[::-1]
    return grid.h ** beta / gamma(beta) * out


def _integral_start_value(values: np.ndarray, grid: Grid, beta: float) -> np.ndarray:
    """Row 0 of `_apply_integral_right`, the right integral at t = a, as
    the O(N) weighted sum of its row of weights: c_k on f_k (k <= N-1)
    and the tail w2_{N-1} on f_N, summed by `np.add.reduce` rather than a
    full convolution; the identity's row 0 for beta = 0."""
    if beta == 0.0:
        return values[0].copy()
    kernel, tail, _ = _kernel("integral", grid.num_intervals, beta)
    # one contiguous product per component, which `np.add.reduce` sums
    # pairwise (a reduction down the rows of a 2-D array adds them in turn)
    row = [np.add.reduce(kernel * f[:-1]) + tail[-1] * f[-1] for f in values.T]
    return grid.h ** beta / gamma(beta) * np.array(row)


def _integral_end_weights(grid: Grid, beta: float) -> np.ndarray:
    """Weights of f_{N-1} and f_N in the last row of `_apply_integral_right`
    whose window is not empty: row N-1 (w1_0 and w2_0, scaled, its only
    non-zeros) for beta > 0, row N of the identity for beta = 0."""
    if beta == 0.0:
        return np.array([0.0, 1.0])
    kernel, tail, _ = _kernel("integral", grid.num_intervals, beta)
    return grid.h ** beta / gamma(beta) * np.array([kernel[0], tail[0]])


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
    vals = _caputo_left_of(f, _as_order(order).alpha)
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
    # the mirror image of the right operator, as the Caputo pair is
    out = _apply_rl_right(f.values[::-1], f.grid, alpha)[::-1]
    return SampledPath(f.grid, out, _rl_singular(f, alpha, 0))


def rl_deriv_right(f: SampledPath, order) -> SampledPath:
    """Right Riemann-Liouville derivative (the operator acting on the
    adjoint variable in the fractional Hamiltonian system).

    Mirror of `rl_deriv_left`: boundary term f(b) (b-t)^(-alpha) /
    gamma(1-alpha), node t = b flagged singular when f(b) != 0.
    """
    alpha = _as_order(order).alpha
    return SampledPath(f.grid, _rl_right_of(f, alpha), _rl_singular(f, alpha, -1))


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
