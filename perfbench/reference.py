"""Independent reference for the dyadic Nadaraya-Watson estimator.

Everything here is written from the definitions, with numpy only, and
shares no code with `dyadreg.estimator` or `dyadreg.kernels`:

    psi_hat(w) = 1/(N(N-1)) sum_{i != j} Y_ij K_h(W_ij - w)
    f_hat(w)   = 1/(N(N-1)) sum_{i != j}      K_h(W_ij - w)
    g_hat(w)   = psi_hat(w) / f_hat(w), undefined where f_hat is below
                 1e-12 K_max h^-d_W

with W_ij = (X_i, X_j), d_W = 2 d_x and K_h(u) = h^-d_W prod_c k(u_c / h).
For every evaluation point the N x N pair-kernel matrix is built in full and
summed against the outcomes with the diagonal masked out, which is the
dense O(N^2) pair sum, not the a^T Y b factorization the package uses.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["FACTORS", "FACTOR_SUP", "uniform_bandwidth", "pointwise_bandwidth",
           "pair_sums", "nw", "hoeffding_statistic"]


def _gaussian(t):
    return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _epanechnikov(t):
    return np.where(np.abs(t) < 1.0, 0.75 * (1.0 - t * t), 0.0)


FACTORS = {"gaussian": _gaussian, "epanechnikov": _epanechnikov}
FACTOR_SUP = {"gaussian": 1.0 / math.sqrt(2.0 * math.pi), "epanechnikov": 0.75}


def uniform_bandwidth(c0: float, beta: float, d_x: int, n: int) -> float:
    """h_N = c0 (ln N / N)^(1/(2 beta + d_x))."""
    return c0 * (math.log(n) / n) ** (1.0 / (2.0 * beta + d_x))


def pointwise_bandwidth(c0: float, beta: float, d_x: int, n: int) -> float:
    """h_N = c0 N^(-1/(2 beta + d_x))."""
    return c0 * n ** (-1.0 / (2.0 * beta + d_x))


def _pair_kernel(x: np.ndarray, kernel: str, h: float, w: np.ndarray) -> np.ndarray:
    """K_h(W_ij - w) for every ordered pair, as an (N, N) matrix."""
    d = x.shape[1]
    k = FACTORS[kernel]
    left = (x[:, None, :] - w[None, None, :d]) / h     # coordinates of X_i
    right = (x[None, :, :] - w[None, None, d:]) / h    # coordinates of X_j
    both = np.concatenate([np.broadcast_to(left, (x.shape[0], x.shape[0], d)),
                           np.broadcast_to(right, (x.shape[0], x.shape[0], d))], axis=-1)
    return np.prod(k(both), axis=-1) / h ** (2 * d)


def pair_sums(x, y, kernel: str, h: float, grid) -> tuple[np.ndarray, np.ndarray]:
    """(psi_hat, f_hat) at every row of grid by the dense pair sum."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    n = x.shape[0]
    off = ~np.eye(n, dtype=bool)
    y_off = np.where(off, y, 0.0)     # the diagonal is structurally absent
    psi = np.empty(grid.shape[0])
    f = np.empty(grid.shape[0])
    for g, w in enumerate(grid):
        kmat = _pair_kernel(x, kernel, h, w)
        psi[g] = np.sum(y_off * kmat) / (n * (n - 1))
        f[g] = np.sum(kmat[off]) / (n * (n - 1))
    return psi, f


def nw(x, y, kernel: str, h: float, grid):
    """(g_hat, f_hat, defined) at every row of grid."""
    psi, f = pair_sums(x, y, kernel, h, grid)
    d_w = 2 * np.asarray(x).shape[1]
    defined = f > 1e-12 * FACTOR_SUP[kernel] ** d_w * h ** (-d_w)
    g = np.full(f.shape, np.nan)
    g[defined] = psi[defined] / f[defined]
    return g, f, defined


def hoeffding_statistic(x, y, kernel: str, h: float, w) -> float:
    """Pair average over unordered pairs of Z_ij = (Y_ij K_ij + Y_ji K_ji) / 2
    with no truncation; on the complete dyad array this equals psi_hat(w)."""
    n = np.asarray(x).shape[0]
    kmat = _pair_kernel(np.asarray(x, dtype=float), kernel, h, np.asarray(w, dtype=float))
    total = 0.0
    for i in range(n - 1):
        j = np.arange(i + 1, n)
        total += float(np.sum(0.5 * (y[i, j] * kmat[i, j] + y[j, i] * kmat[j, i])))
    return total / (n * (n - 1) / 2)
