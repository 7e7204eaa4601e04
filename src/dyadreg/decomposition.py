"""Empirical Hoeffding decomposition of the symmetrized kernel average.

For unordered pairs, Z_ij = (1/2)[Y_ij 1(|Y_ij|<tau) K_h(W_ij - w)
+ Y_ji 1(|Y_ji|<tau) K_h(W_ji - w)], and the statistic is the pair average
of Z. The data-based projection uses row means R_i = mean_j Z_ij and the
grand mean, and the variance diagnostics come from within-replication
variance-component estimates:

    var1_hat ~ Var(T_1) = (4/N) Var(E[Z|unit i]),   via centered row means
               (with the row-mean noise bias removed),
    var2_hat ~ Var(T_2) = Var(residual)/C(N,2),     via the doubly centered
               residuals Z_ij - R_i - R_j + statistic.

Neither Z nor the residuals are formed. With K_h(W_ij - w) = s a_i b_j
(s = h^-dim, a and b the per-unit kernel weights) and Yt the outcomes masked
by |Y| < tau, the row sums of Z are (s/2)(a∘(Yt b) + b∘(Yt^T a)): two
matvecs. The sum of Z_ij^2 over i != j is
(s^2/2)[(a∘a)^T (Yt∘Yt)(b∘b) + (a∘b)^T (Yt∘Yt^T)(a∘b)], and the residual sum
of squares follows from it and the row means in closed form.

One accumulator, _split, gathers both matvecs and both quadratic forms from
pair blocks: for some rows i and columns j, the outcomes Y_ij and Y_ji of the
pairs j > i among them. hoeffding_decompose reads the blocks from a dataset's
Y, mostly as views. variance_dominance has each replication's blocks drawn by
dgp._pair_blocks, so no replication holds an N x N outcome matrix. No
temporary of either path is larger than a few blocks of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dgp import DgpSpec, DyadicDataset, _pair_blocks, replicate
from .estimator import BandwidthRule, _weights, kernel_scale

__all__ = ["HoeffdingParts", "DominanceRow", "hoeffding_decompose", "variance_dominance"]

_BLOCK = 64   # rows of a dataset's Y per pair block; no temporary is larger than _BLOCK x N


@dataclass(frozen=True)
class HoeffdingParts:
    statistic: float
    var1_hat: float
    var2_hat: float


def _split(x: np.ndarray, blocks, kernel, h: float, tau: float, w) -> HoeffdingParts:
    """The split of the outcomes whose pair blocks (r0, r1, c0, up, low)
    `blocks` yields, with regressors x. A block covers rows r0 <= i < r1 and
    columns from c0: up[i - r0, k] = Y_ij and low[i - r0, k] = Y_ji for
    j = c0 + k > i, and zero where j <= i. Every pair (i, j > i) is in one
    block."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    n, d = x.shape
    a, b = (_weights(x, kernel, h, half)[:, 0] for half in (w[:d], w[d:]))
    a2, b2, ab = a * a, b * b, a * b
    yt_b, yt_a = np.zeros(n), np.zeros(n)    # Yt b and Yt^T a
    sq = cross = 0.0                          # (a∘a)^T (Yt∘Yt)(b∘b), (a∘b)^T (Yt∘Yt^T)(a∘b)
    for r0, r1, c0, up, low in blocks:
        if math.isfinite(tau):
            up = up * (np.abs(up) < tau)
            low = low * (np.abs(low) < tau)
        i, j = slice(r0, r1), slice(c0, c0 + up.shape[1])
        yt_b[i] += up @ b[j]
        yt_b[j] += b[i] @ low
        yt_a[j] += a[i] @ up
        yt_a[i] += low @ a[j]
        sq += a2[i] @ (up**2 @ b2[j]) + b2[i] @ (low**2 @ a2[j])
        cross += 2.0 * (ab[i] @ ((up * low) @ ab[j]))
    s = kernel_scale(h, kernel.dim)
    row_means = 0.5 * s * (a * yt_b + b * yt_a) / (n - 1)
    statistic = float(np.sum(row_means) / n)
    # sum over i != j of (Z_ij - r_i - r_j)^2, expanded with r = row_means - statistic/2;
    # rounding can take the difference below zero
    r = row_means - 0.5 * statistic
    z_sq = 0.5 * s * s * (sq + cross)
    rss = z_sq - 4 * (n - 1) * (r @ row_means) + 2 * (n - 2) * (r @ r) + 2 * np.sum(r) ** 2
    n_pairs = n * (n - 1) // 2
    resid_ms = max(float(rss), 0.0) / 2.0 / n_pairs
    s2_uc = float(np.sum((row_means - statistic) ** 2) / (n - 1))
    var1 = 4.0 / n * max(s2_uc - resid_ms / (n - 1), 0.0)
    var2 = resid_ms / n_pairs
    return HoeffdingParts(statistic=statistic, var1_hat=var1, var2_hat=var2)


def _dataset_blocks(y: np.ndarray):
    """The pair blocks of an outcome matrix y: for each block of rows, the
    square of its own columns with j <= i zeroed, then views of y for the
    columns right of it, all of which hold pairs, so y is not copied."""
    n = len(y)
    for r0 in range(0, n - 1, _BLOCK):
        r1 = min(r0 + _BLOCK, n - 1)
        yield r0, r1, r0, np.triu(y[r0:r1, r0:r1], 1), np.triu(y[r0:r1, r0:r1].T, 1)
        yield r0, r1, r1, y[r0:r1, r1:], y[r1:, r0:r1].T


def hoeffding_decompose(data: DyadicDataset, kernel, h: float, tau: float, w) -> HoeffdingParts:
    """The statistic and the projection / degenerate variance-component
    estimates of a dataset."""
    return _split(data.x, _dataset_blocks(data.y), kernel, h, tau, w)


@dataclass(frozen=True)
class DominanceRow:
    n_units: int
    var_t1: float
    var_t2: float
    ratio: float
    n_excluded: int


def variance_dominance(spec: DgpSpec, kernel, rule: BandwidthRule, n_list, reps: int,
                       w, seed: int) -> list[DominanceRow]:
    """Monte Carlo table of projection vs degenerate variance per N; the
    ratio var_t2/var_t1 should fall with N when unit effects are present.
    Each replication's outcomes stream from dgp._pair_blocks into the split,
    so none holds an N x N matrix; the values are those of hoeffding_decompose
    on simulate's dataset up to the rounding of sums taken in other blocks."""
    if reps < 50:
        raise ValueError("reps must be >= 50")

    def variances(draw, h):
        parts = _split(*draw, kernel, h, math.inf, w)
        return parts.var1_hat, parts.var2_hat

    rows = []
    for n, stats in replicate(spec, rule, n_list, reps, seed, variances, draw=_pair_blocks):
        kept = [v for v in stats if np.isfinite(v[0]) and np.isfinite(v[1])]
        var1 = float(np.mean([v1 for v1, _ in kept])) if kept else math.nan
        var2 = float(np.mean([v2 for _, v2 in kept])) if kept else math.nan
        ratio = var2 / var1 if var1 > 0 else math.inf
        rows.append(DominanceRow(n_units=n, var_t1=var1, var_t2=var2,
                                 ratio=ratio, n_excluded=reps - len(kept)))
    return rows
