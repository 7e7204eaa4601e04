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
of squares follows from it and the row means in closed form. Both matvecs and
both quadratic forms come from one pass over Y in blocks of rows, so no
temporary is larger than _BLOCK x N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dgp import DgpSpec, DyadicDataset, replicate
from .estimator import BandwidthRule, _weights, kernel_scale

__all__ = ["HoeffdingParts", "DominanceRow", "hoeffding_decompose", "variance_dominance"]

_BLOCK = 64   # rows of Y per step of the pass; no temporary is larger than _BLOCK x N


@dataclass(frozen=True)
class HoeffdingParts:
    statistic: float
    unit_contributions: np.ndarray
    var1_hat: float
    var2_hat: float


def hoeffding_decompose(data: DyadicDataset, kernel, h: float, tau: float, w) -> HoeffdingParts:
    """The statistic with its centered unit contributions and the projection /
    degenerate variance-component estimates."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    n = data.n_units
    a, b = (_weights(data, kernel, h, half)[:, 0] for half in (w[:data.d_x], w[data.d_x:]))
    a2, b2, ab = a * a, b * b, a * b
    y = data.y
    yt_b, yt_a = np.empty(n), np.zeros(n)    # Yt b and Yt^T a
    sq = cross = 0.0                          # (a∘a)^T (Yt∘Yt)(b∘b), (a∘b)^T (Yt∘Yt^T)(a∘b)
    for r0 in range(0, n, _BLOCK):
        rows = slice(r0, r0 + _BLOCK)
        y_rows, y_cols = y[rows], y[:, rows].T
        if math.isfinite(tau):
            y_rows = y_rows * (np.abs(y_rows) < tau)
            y_cols = y_cols * (np.abs(y_cols) < tau)
        yt_b[rows] = y_rows @ b
        yt_a += a[rows] @ y_rows
        sq += a2[rows] @ (y_rows**2 @ b2)
        cross += ab[rows] @ ((y_rows * y_cols) @ ab)
    s = kernel_scale(h, kernel.dim)
    row_means = 0.5 * s * (a * yt_b + b * yt_a) / (n - 1)
    statistic = float(np.sum(row_means) / n)
    uc = row_means - statistic
    # sum over i != j of (Z_ij - r_i - r_j)^2, expanded with r = row_means - statistic/2;
    # rounding can take the difference below zero
    r = row_means - 0.5 * statistic
    z_sq = 0.5 * s * s * (sq + cross)
    rss = z_sq - 4 * (n - 1) * (r @ row_means) + 2 * (n - 2) * (r @ r) + 2 * np.sum(r) ** 2
    n_pairs = n * (n - 1) // 2
    resid_ms = max(float(rss), 0.0) / 2.0 / n_pairs
    s2_uc = float(np.sum(uc**2) / (n - 1))
    var1 = 4.0 / n * max(s2_uc - resid_ms / (n - 1), 0.0)
    var2 = resid_ms / n_pairs
    return HoeffdingParts(statistic=statistic, unit_contributions=uc, var1_hat=var1, var2_hat=var2)


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
    ratio var_t2/var_t1 should fall with N when unit effects are present."""
    if reps < 50:
        raise ValueError("reps must be >= 50")

    def variances(data, h):
        parts = hoeffding_decompose(data, kernel, h, math.inf, w)
        return parts.var1_hat, parts.var2_hat

    rows = []
    for n, stats in replicate(spec, rule, n_list, reps, seed, variances):
        kept = [v for v in stats if np.isfinite(v[0]) and np.isfinite(v[1])]
        var1 = float(np.mean([v1 for v1, _ in kept])) if kept else math.nan
        var2 = float(np.mean([v2 for _, v2 in kept])) if kept else math.nan
        ratio = var2 / var1 if var1 > 0 else math.inf
        rows.append(DominanceRow(n_units=n, var_t1=var1, var_t2=var2,
                                 ratio=ratio, n_excluded=reps - len(kept)))
    return rows
