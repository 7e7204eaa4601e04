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

_split closes the split from both matvecs and both quadratic forms. _block_sums
gathers them from pair blocks (for some rows i and columns j, Y_ij and Y_ji of
the pairs j > i among them) of a dataset's Y, mostly views, or of a graphon or
product DGP's dgp._pair_blocks. _additive_sums gathers an additive DGP's in
closed form beside one walk of the V draw: at N = 1200 on one thread that costs
the draw plus 9-23%, against plus 37-47% through _pair_blocks (timeit, best of
15, four runs, shared 2-core host). No temporary is larger than a few blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dgp import DgpSpec, DyadicDataset, _additive_units, _off_diagonal_sums, _pair_blocks, _v_pair_blocks, replicate
from .estimator import BandwidthRule, _half_weights, kernel_scale

__all__ = ["HoeffdingParts", "DominanceRow", "hoeffding_decompose", "variance_dominance"]

_BLOCK = 64   # rows of a dataset's Y per pair block; no temporary is larger than _BLOCK x N


@dataclass(frozen=True)
class HoeffdingParts:
    statistic: float
    var1_hat: float
    var2_hat: float


def _split(x: np.ndarray, sums, kernel, h: float, w) -> HoeffdingParts:
    """The split of outcomes Y with regressors x from sums(a, b) = (Yt b, Yt^T a,
    (a∘a)^T (Yt∘Yt)(b∘b), (a∘b)^T (Yt∘Yt^T)(a∘b)), a and b w's kernel weights."""
    n, d = x.shape
    a, b = (weights[:, 0] for weights in _half_weights(x, kernel, h, w[:d], w[d:]))
    yt_b, yt_a, sq, cross = sums(a, b)
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


def _block_sums(blocks, tau: float, a: np.ndarray, b: np.ndarray):
    """_split's sums(a, b) of the outcomes in the pair blocks (r0, c0, up, low)
    of `blocks`, masked by |Y| < tau: up[i - r0, k] = Y_ij and
    low[i - r0, k] = Y_ji for r0 <= i < r0 + len(up) and j = c0 + k > i,
    zero where j <= i. Every pair (i, j > i) is in one block. A block of
    dgp._pair_blocks has c0 = r0; _dataset_blocks' views right of a square
    start at its r1."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    n = len(a)
    a2, b2, ab = a * a, b * b, a * b
    yt_b, yt_a = np.zeros(n), np.zeros(n)
    sq = cross = 0.0
    for r0, c0, up, low in blocks:
        if math.isfinite(tau):
            up = up * (np.abs(up) < tau)
            low = low * (np.abs(low) < tau)
        i, j = slice(r0, r0 + len(up)), slice(c0, c0 + up.shape[1])
        yt_b[i] += up @ b[j]
        yt_b[j] += b[i] @ low
        yt_a[j] += a[i] @ up
        yt_a[i] += low @ a[j]
        sq += a2[i] @ (up**2 @ b2[j]) + b2[i] @ (low**2 @ a2[j])
        cross += 2.0 * (ab[i] @ ((up * low) @ ab[j]))
    return yt_b, yt_a, sq, cross


def _additive_sums(c: np.ndarray, seed: int, a: np.ndarray, b: np.ndarray):
    """_split's sums(a, b), tau = inf, of Y_ij = c_i + c_j + V_ij, V the
    dgp._v_pair_blocks walk of seed: with J = dgp._off_diagonal_sums, Y b =
    c∘(J b) + J(c∘b) + V b (Y^T a alike); Y_ij² and Y_ij Y_ji expand into c
    parts in closed form, V @ [b, b², b²∘c, ab, ab∘c] and sums of V_ij² and
    V_ij V_ji from the same blocks, scaled in place: the peak is the walk's."""
    cols = np.stack([b, b * b, b * b * c, a * b, a * b * c], axis=1)
    a2, b2, ab = a * a, cols[:, 1], cols[:, 3]
    v_cols, vt_a, sq_v, cross_v = np.zeros((len(c), 5)), np.zeros(len(c)), 0.0, 0.0
    for r0, r1, up, low in _v_pair_blocks(seed, len(c)):
        i, j = slice(r0, r1), slice(r0, None)
        v_cols[i] += up @ cols[j]
        v_cols[j] += low.T @ cols[i]
        vt_a[j] += a[i] @ up
        vt_a[i] += low @ a[j]
        up *= b[j]  # the walk rewrites both blocks: up now holds V_ij b_j, low V_ji a_j
        low *= a[j]
        sq_v += a2[i] @ np.einsum("ij,ij->i", up, up) + b2[i] @ np.einsum("ij,ij->i", low, low)
        cross_v += ab[i] @ np.einsum("ij,ij->i", up, low)
    # per column v of [b, a, b², ab], the sums over j != i of (c_i + c_j) v_j and (c_i + c_j)² v_j
    v, ci = np.stack([b, a, b2, ab], axis=1), c[:, None]
    j0, j1, j2 = (_off_diagonal_sums(ci**k * v) for k in range(3))
    lin, quad = ci * j0 + j1, ci * ci * j0 + 2.0 * ci * j1 + j2
    sq = a2 @ quad[:, 2] + 2.0 * ((a2 * c) @ v_cols[:, 1] + a2 @ v_cols[:, 2]) + sq_v
    cross = ab @ quad[:, 3] + 2.0 * ((ab * c) @ v_cols[:, 3] + ab @ v_cols[:, 4]) + 2.0 * cross_v
    return lin[:, 0] + v_cols[:, 0], lin[:, 1] + vt_a, sq, cross


def _dataset_blocks(y: np.ndarray):
    """The pair blocks of an outcome matrix y: for each block of rows, the
    square of its own columns with j <= i zeroed, then views of y for the
    columns right of it, all of which hold pairs, so y is not copied."""
    n = len(y)
    for r0 in range(0, n - 1, _BLOCK):
        r1 = min(r0 + _BLOCK, n - 1)
        yield r0, r0, np.triu(y[r0:r1, r0:r1], 1), np.triu(y[r0:r1, r0:r1].T, 1)
        yield r0, r1, y[r0:r1, r1:], y[r1:, r0:r1].T


def hoeffding_decompose(data: DyadicDataset, kernel, h: float, tau: float, w) -> HoeffdingParts:
    """The statistic and the projection / degenerate variance-component
    estimates of a dataset."""
    return _split(data.x, functools.partial(_block_sums, _dataset_blocks(data.y), tau), kernel, h, w)


def _streamed_sums(spec: DgpSpec, n_units: int, seed: int):
    """(x, sums) for _split, tau = inf, of simulate(spec, n_units, seed)'s dataset."""
    if spec.unit_part is None:
        x, blocks = _pair_blocks(spec, n_units, seed)
        return x, functools.partial(_block_sums, ((r0, r0, up, low) for r0, _, up, low in blocks), math.inf)
    x, c = _additive_units(spec, n_units, seed)
    return x, functools.partial(_additive_sums, c, seed)


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
    Each replication streams from _streamed_sums with no N x N matrix, and
    its values are hoeffding_decompose's on simulate's dataset up to the
    rounding of sums taken in another order."""
    if reps < 50:
        raise ValueError("reps must be >= 50")

    def variances(draw, h):
        parts = _split(*draw, kernel, h, w)
        return parts.var1_hat, parts.var2_hat

    rows = []
    for n, stats in replicate(spec, rule, n_list, reps, seed, variances, draw=_streamed_sums):
        kept = [v for v in stats if np.isfinite(v[0]) and np.isfinite(v[1])]
        var1 = float(np.mean([v1 for v1, _ in kept])) if kept else math.nan
        var2 = float(np.mean([v2 for _, v2 in kept])) if kept else math.nan
        ratio = var2 / var1 if var1 > 0 else math.inf
        rows.append(DominanceRow(n_units=n, var_t1=var1, var_t2=var2,
                                 ratio=ratio, n_excluded=reps - len(kept)))
    return rows
