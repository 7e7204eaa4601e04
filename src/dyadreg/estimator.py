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

Over a grid of G points whose first halves w1 take G1 distinct values and last
halves w2 take G2, the sums are read off the G1 x G2 matrix a^T (Y b) of the
distinct halves when that costs fewer flops, N^2 G2 + N G1 G2 against N^2 G +
N G for a column pair per point: a product grid contracts over sqrt(G)
columns. One point and scattered lists keep a column pair per point.

A study evaluates every replication on one fixed grid, so the split of a grid
into its distinct halves, each point's position (p, q) among them and the
distinct coordinate values of the halves are planned once per distinct grid:
a small cache keyed on the grid's bytes hands back read-only arrays, and a
replication only evaluates kernel factors, forms a^T (Y b) and the density
matrix, and gathers the grid from them. A one-point grid skips the cache.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .dgp import DyadicDataset, _off_diagonal_sums
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


def _weights(x: np.ndarray, kernel: KernelSpec, h: float, points, codes=None) -> np.ndarray:
    """Per-unit weights (N, M) of regressors x (N, d_x) at M points of R^d_x,
    one half of a grid point: W[i, m] = prod_c k((x_ic - p_mc)/h). k runs once
    per distinct value of a coordinate; np.take gathers it into C-ordered
    columns, so sums over them match those over weights built point by point. codes, if given, are the
    _coordinate_codes of points, as a grid's plan holds them. Every pair sum
    builds its weights here, so here the kernel dimension, bandwidth and shape
    are checked."""
    d_x = x.shape[1]
    if kernel.dim != 2 * d_x:
        raise ValueError(f"kernel dim {kernel.dim} != 2 d_x = {2 * d_x}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be finite and positive, got {h}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != d_x:
        raise ValueError(f"grid points must have length {kernel.dim}")
    if codes is None:
        codes = _coordinate_codes(points)
    def factor(c):
        values, inverse = codes[c]
        return np.take(kernel.factor.fn((x[:, c, None] - values) / h), inverse, axis=1)
    weights = factor(0)
    for c in range(1, d_x):
        weights *= factor(c)
    return weights


def _half_weights(x: np.ndarray, kernel: KernelSpec, h: float, first, second,
                  codes=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """(a, b): the _weights of the first and of the second halves of grid
    points, with their codes if given. Where the halves are equal bit for bit
    (a product grid over the same axes, or w = (w1, w1)) so are the weights,
    and b is a itself: built once, held once."""
    a = _weights(x, kernel, h, first, codes[0])
    first, second = np.asarray(first, dtype=float), np.asarray(second, dtype=float)
    if first.shape == second.shape and first.tobytes() == second.tobytes():
        return a, a
    return a, _weights(x, kernel, h, second, codes[1])


def _coordinate_codes(points: np.ndarray) -> tuple:
    """Per column of points (M, d): its distinct values and, per point, the
    position of its value among them."""
    return tuple(np.unique(col, return_inverse=True) for col in points.T)


def _distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, index): the distinct rows of points and, per row of points, the
    position of its row in rows. Rows are told apart by combining per-column
    codes, recompressed after each column so the codes stay below len(points).
    Trailing dimensions are kept, so _weights rejects a malformed shape."""
    code = np.zeros(len(points), dtype=np.intp)
    for col in points.reshape(len(points), math.prod(points.shape[1:])).T:
        values, inverse = np.unique(col, return_inverse=True)
        code = np.unique(code * len(values) + inverse, return_inverse=True)[1]
    rows = np.empty((code.max(initial=-1) + 1,) + points.shape[1:])
    rows[code] = points
    return rows, code


@functools.lru_cache(maxsize=8)
def _planned_halves(key: bytes, shape: tuple, d: int) -> tuple[tuple, tuple]:
    """The plan of the grid whose float64 bytes are key: per half, its distinct
    rows, each point's position among them and the rows' _coordinate_codes.
    Read-only, because every caller with an equal grid shares the arrays."""
    grid = np.frombuffer(key).reshape(shape)
    plan = []
    for half in (grid[:, :d], grid[:, d:]):
        rows, index = _distinct_rows(half)
        codes = _coordinate_codes(rows)
        for array in (rows, index, *(a for pair in codes for a in pair)):
            array.flags.writeable = False
        plan.append((rows, index, codes))
    return tuple(plan)


_PLAN_LOCK = threading.Lock()  # replicate's threads build a grid's plan once, not once each


def _grid_halves(grid: np.ndarray, d: int) -> tuple[tuple, tuple]:
    """((u, p, u_codes), (v, q, v_codes)) of a float grid: its plan, from the
    cache unless the grid has one point."""
    if len(grid) < 2:  # one-point calls are the hot path of pointwise studies
        index = np.zeros(len(grid), dtype=np.intp)
        return (grid[:, :d], index, None), (grid[:, d:], index, None)
    with _PLAN_LOCK:
        return _planned_halves(grid.tobytes(), grid.shape, d)


def _pair_sums(x: np.ndarray, kernel: KernelSpec, h: float, grid,
               y_matmul) -> tuple[np.ndarray, np.ndarray]:
    """Pair averages (psi, f) over the grid for regressors x (N x d_x): psi
    contracts the outcome matrix Y (zero diagonal) as a^T (Y b), with Y b =
    y_matmul(b), f the all-ones matrix off the diagonal, as a^T (J b) with J
    dgp._off_diagonal_sums, so no unit's diagonal product cancels.

    With G grid points whose halves take G1 and G2 distinct values, the whole
    G1 x G2 matrix over the distinct halves costs N^2 G2 + N G1 G2 flops, the
    G entries one by one N^2 G + N G. The cheaper is taken: a product grid
    forms the matrix and gathers from it; one point or a scattered list gives
    each point its own columns of a and b, and its sums are bit for bit those
    of weights built point by point."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    n, d = x.shape
    (u, p, u_codes), (v, q, v_codes) = _grid_halves(grid, d)
    if len(v) * (n + len(u)) < len(grid) * (n + 1):
        a, b = _half_weights(x, kernel, h, u, v, (u_codes, v_codes))
        psi = (a.T @ y_matmul(b))[p, q]
        f = (a.T @ _off_diagonal_sums(b))[p, q]
    else:
        a, b = _half_weights(x, kernel, h, grid[:, :d], grid[:, d:])
        psi = np.einsum("ng,ng->g", a, y_matmul(b))
        f = np.einsum("ng,ng->g", a, _off_diagonal_sums(b))
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
    return _nw(data.x, data.y.__matmul__, kernel, h, grid)


def _nw(x: np.ndarray, y_matmul, kernel: KernelSpec, h: float, grid) -> NwResult:
    """nw_estimate for regressors x whose outcome matrix Y is reached only
    through y_matmul(b) = Y @ b: a dataset's Y, or dgp._outcome_matmul's
    stream of simulate's Y, which never builds it."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    num, den = _pair_sums(x, kernel, h, grid, y_matmul)
    eps_denom = 1e-12 * kernel.k_max * kernel_scale(h, kernel.dim)
    defined = den > eps_denom
    g_hat = np.full(den.shape, np.nan)
    np.divide(num, den, out=g_hat, where=defined)
    return NwResult(grid=grid, g_hat=g_hat, f_hat=den, defined=defined)
