"""Empirical Hoeffding decomposition of the symmetrized kernel average.

For unordered pairs, Z_ij = (1/2)[Y_ij 1(|Y_ij|<tau) K_h(W_ij - w)
+ Y_ji 1(|Y_ji|<tau) K_h(W_ji - w)], and the statistic is the pair average
of Z. The data-based projection uses row means R_i = mean_j Z_ij and the
grand mean, and the variance diagnostics come from within-replication
variance-component estimates:

    var1_hat ~ Var(T_1) = (4/N) Var(E[Z|unit i]),   via centered row means
               (with the row-mean noise bias removed),
    var2_hat ~ Var(T_2) = Var(residual)/C(N,2),     via the doubly centered
               residual matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dgp import DgpSpec, DyadicDataset, replicate
from .estimator import BandwidthRule, _weights

__all__ = ["HoeffdingParts", "DominanceRow", "hoeffding_decompose", "variance_dominance"]


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
    a, b = (m[:, 0] for m in _weights(data, kernel, h, [w]))
    k_mat = h ** (-kernel.dim) * np.outer(a, b)
    m = data.y * (np.abs(data.y) < tau) * k_mat
    z = 0.5 * (m + m.T)           # symmetric; Z_ij for unordered pairs, zero diagonal
    n_pairs = n * (n - 1) // 2
    statistic = float(np.sum(z) / 2.0 / n_pairs)
    row_means = z.sum(axis=1) / (n - 1)
    uc = row_means - statistic
    resid = z - row_means[:, None] - row_means[None, :] + statistic
    np.fill_diagonal(resid, 0.0)
    resid_ms = float(np.sum(resid**2) / 2.0 / n_pairs)
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
                       w, seed: int, tau: float = math.inf) -> list[DominanceRow]:
    """Monte Carlo table of projection vs degenerate variance per N; the
    ratio var_t2/var_t1 should fall with N when unit effects are present."""
    if reps < 50:
        raise ValueError("reps must be >= 50")

    def variances(data, h):
        parts = hoeffding_decompose(data, kernel, h, tau, w)
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
