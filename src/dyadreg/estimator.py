"""Dyadic Nadaraya-Watson estimator, kernel averages, and bandwidth rules.

The regression estimate at w = (w1, w2) is the ratio of two pair averages,

    psi_hat(w) = (1 / N(N-1)) sum_{i != j} Y_ij K_h(W_ij - w),
    f_hat(w)   = (1 / N(N-1)) sum_{i != j}      K_h(W_ij - w),

with K_h(u) = h^-d_W K(u / h) and W_ij = (X_i, X_j). For product kernels the
pair sums factor as a^T Y b with per-unit weight vectors a, b, which is what
the implementation computes (the naive pair sweep lives in the test suite as
an independent oracle). The contraction reads Y only as the product Y b, so
it takes either a dataset's Y (nw_estimate) or dgp._outcome_matmul's stream
of simulate's Y, which is never built (_nw, for rate studies of an additive
DGP). Both paths share the weights, the density sum and the ratio with its
cutoff, so f_hat and the undefined markers agree bit for bit; g_hat agrees
to rounding, since Y b is summed in another order.

On a product grid, the G points listed by 1-d axes (dgp.axes_grid, last
axis fastest) whose first halves w1 take G1 values and last halves w2 take
G2, the sums are the G1 x G2 matrix a^T (Y b) raveled: each half's weights
are the outer product of per-axis kernel factors, and the matrix costs
N^2 G2 + N G1 G2 flops against N^2 G + N G for a column pair per point, so
a product grid contracts over sqrt(G) columns. Rate studies and the CLI
pass the axes they build the grid from. A bare array passed to nw_estimate
is read afresh on every call: if it is the axes_grid of its columns'
distinct values, bit for bit, those are its axes; any other list, and one
point, keeps a column pair per point, whose sums are bit for bit those of
weights built point by point. Nothing about a grid is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dgp import DyadicDataset, _off_diagonal_sums, axes_grid
from .kernels import KernelSpec

__all__ = [
    "BandwidthRule",
    "NwResult",
    "bandwidth",
    "kernel_scale",
    "nw_estimate",
]

BANDWIDTH_MODES = ("pointwise-optimal", "uniform-optimal", "fixed", "custom-exponent")


@dataclass(frozen=True)
class BandwidthRule:
    mode: str
    c0: float
    beta: float = 2.0
    d_x: int = 1
    exponent: float | None = None  # only for custom-exponent

    def __post_init__(self):
        if self.mode not in BANDWIDTH_MODES:
            raise ValueError(f"unknown bandwidth mode {self.mode!r}; known: {', '.join(BANDWIDTH_MODES)}")
        for name, value in (("c0", self.c0), ("beta", self.beta)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.mode == "custom-exponent" and self.exponent is None:
            raise ValueError("custom-exponent mode requires an exponent")


def bandwidth(rule: BandwidthRule, n_units: int) -> float:
    """h_N under the rule; the optimal modes are c0 (ln N / N)^(1/(2b+d)) and
    c0 N^(-1/(2b+d))."""
    if n_units < 3:
        raise ValueError("n_units must be >= 3")
    n = float(n_units)
    if rule.mode == "fixed":
        return rule.c0
    if rule.mode == "custom-exponent":
        return rule.c0 * n ** (-rule.exponent)
    expo = 1.0 / (2.0 * rule.beta + rule.d_x)
    if rule.mode == "uniform-optimal":
        return rule.c0 * (math.log(n) / n) ** expo
    return rule.c0 * n ** (-expo)


def kernel_scale(h: float, dim: int) -> float:
    """h^-dim, the factor of K_h(u) = h^-dim K(u / h); ValueError on overflow."""
    try:
        return h ** (-dim)
    except OverflowError:
        raise ValueError(f"bandwidth {h!r} is too small: h^-{dim} overflows") from None


# ---------------------------------------------------------------------------
# kernel pair averages


def _weights(x: np.ndarray, kernel: KernelSpec, h: float, points) -> np.ndarray:
    """Per-unit weights (N, M) of regressors x (N, d_x) at M points of R^d_x,
    one half of a grid point: W[i, m] = prod_c k((x_ic - p_mc)/h), multiplied
    in coordinate order. points is an (M, d_x) array, or a tuple of d_x 1-d
    axes whose product, last axis fastest (dgp.axes_grid), lists the M points:
    then k runs once per axis value and W is the outer product of the
    per-axis factors, bit for bit the weights of the points listed. Every
    pair sum builds its weights here, so here the kernel dimension, bandwidth
    and shape are checked."""
    n, d_x = x.shape
    if kernel.dim != 2 * d_x:
        raise ValueError(f"kernel dim {kernel.dim} != 2 d_x = {2 * d_x}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be finite and positive, got {h}")
    outer = isinstance(points, tuple)
    if outer:
        columns = [np.asarray(axis, dtype=float) for axis in points]
    else:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        columns = list(points.T) if points.ndim == 2 else []
    if len(columns) != d_x:
        raise ValueError(f"grid points must have length {kernel.dim}")
    weights = kernel.factor.fn((x[:, 0, None] - columns[0]) / h)
    for c in range(1, d_x):
        factor = kernel.factor.fn((x[:, c, None] - columns[c]) / h)
        if outer:
            weights = (weights[:, :, None] * factor[:, None, :]).reshape(n, -1)
        else:
            weights *= factor
    return weights


def _half_weights(x: np.ndarray, kernel: KernelSpec, h: float, first, second) -> tuple[np.ndarray, np.ndarray]:
    """(a, b): the _weights of the first and of the second halves of grid
    points, each an array of points or a tuple of axes. Where the halves are
    equal bit for bit (a product grid over the same axes, or w = (w1, w1)) so
    are the weights, and b is a itself: built once, held once."""
    def bits(half):  # the halves are alike: both (M, d_x) points, or both d_x axes
        return [np.asarray(p, dtype=float).tobytes() for p in (half if isinstance(half, tuple) else (half,))]

    a = _weights(x, kernel, h, first)
    return (a, a) if bits(first) == bits(second) else (a, _weights(x, kernel, h, second))


def _grid_axes(grid: np.ndarray) -> list | None:
    """The 1-d axes whose dgp.axes_grid is grid bit for bit: the distinct
    values of its columns, if their product lists grid in its order; else None."""
    axes = [np.unique(col, return_inverse=True)[0] for col in grid.T]  # without indices it imports numpy.ma: 25 ms
    if math.prod(map(len, axes)) != len(grid):
        return None
    return axes if np.array_equal(axes_grid(axes).view(np.int64), grid.view(np.int64)) else None


def _dense_sums(y: np.ndarray):
    """The outcome_sums of an outcome matrix y held in memory (_pair_sums)."""
    return lambda b, contract: (contract(y @ b), contract(_off_diagonal_sums(b)))


def _pair_sums(x: np.ndarray, kernel: KernelSpec, h: float, grid, outcome_sums,
               axes=None) -> tuple[np.ndarray, np.ndarray]:
    """Pair averages (psi, f) over the grid for regressors x (N x d_x): psi
    contracts the outcome matrix Y (zero diagonal) as a^T (Y b), f the
    all-ones matrix off the diagonal as a^T (J b), with J
    dgp._off_diagonal_sums, so no unit's diagonal product cancels. Y is read
    only through outcome_sums(b, contract) = (contract(Y b), contract(J b)).
    A product grid (axes, or _grid_axes of a bare grid) whose first half
    lists more than one point contracts to the G1 x G2 matrix a^T (Y b),
    whose C order is the grid's, point g at (p, q) = divmod(g, G2); one point
    and any other list give each point its own columns of a and b."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    n, d = x.shape
    if axes is None and grid.ndim == 2 and len(grid) > 1:
        axes = _grid_axes(grid)
    if axes is not None and math.prod(len(axis) for axis in axes[:d]) > 1:
        a, b = _half_weights(x, kernel, h, tuple(axes[:d]), tuple(axes[d:]))
        psi, f = outcome_sums(b, lambda m: (a.T @ m).ravel())
    else:
        a, b = _half_weights(x, kernel, h, grid[:, :d], grid[:, d:])
        psi, f = outcome_sums(b, lambda m: np.einsum("ng,ng->g", a, m))
    scale = kernel_scale(h, kernel.dim) / (n * (n - 1))
    return psi * scale, f * scale


@dataclass(frozen=True)
class NwResult:
    grid: np.ndarray      # (G, 2 d_x)
    g_hat: np.ndarray     # NaN where undefined
    f_hat: np.ndarray
    defined: np.ndarray   # bool

    @property
    def n_undefined(self) -> int:
        return int(np.sum(~self.defined))


def nw_estimate(data: DyadicDataset, kernel: KernelSpec, h: float, grid) -> NwResult:
    """Regression estimates over a grid; per-point undefined markers where the
    density estimate falls below the denominator cutoff, never a crash."""
    return _nw(data.x, _dense_sums(data.y), kernel, h, grid)


def _nw(x: np.ndarray, outcome_sums, kernel: KernelSpec, h: float, grid, axes=None) -> NwResult:
    """nw_estimate for regressors x whose outcome matrix Y is reached only
    through outcome_sums (_pair_sums): a dataset's Y, or dgp._outcome_matmul's
    stream of simulate's Y, which never builds it. axes, if given, are the
    1-d axes whose dgp.axes_grid is grid."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    num, den = _pair_sums(x, kernel, h, grid, outcome_sums, axes)
    eps_denom = 1e-12 * kernel.k_max * kernel_scale(h, kernel.dim)
    defined = den > eps_denom
    g_hat = np.full(den.shape, np.nan)
    np.divide(num, den, out=g_hat, where=defined)
    return NwResult(grid=grid, g_hat=g_hat, f_hat=den, defined=defined)
