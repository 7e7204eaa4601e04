"""Numerical realizations of the risk lower-bound constructions.

Two-point route: null g0 = 0 against a bump-kernel perturbation g1 built
from two centers, with the Gaussian KL divergence between the induced data
laws available in closed form through the error covariance I + T T^T (T the
dyad-to-unit selection matrix, applied only as matvecs). Fano route: a packing
of bump perturbations on a regular center grid with disjoint supports. Every
hypothesis of both is additive in unit effects, g_k(x1, x2) = b_k(x1) + b_k(x2),
and `MinimaxConstruction.unit_effects` is the one definition of b_k.

Quadratic forms through (I + T T^T)^{-1} are evaluated through the N x N
core (I + T^T T) so nothing of size N(N-1) is ever factorized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dgp import _stream, axes_grid, uniform_law
from .errors import AssumptionViolation, PackingDegenerate
from .kernels import KernelSpec, eval_kernel, make_kernel

__all__ = [
    "SelectionMatrices",
    "MinimaxConstruction",
    "SeparationResult",
    "KlReport",
    "FanoReport",
    "HolderReport",
    "build_selection",
    "kl_quadratic_form",
    "woodbury_sides",
    "woodbury_gap",
    "make_two_point",
    "make_fano",
    "hypothesis_g",
    "separation_check",
    "kl_two_point",
    "fano_kl_average",
    "holder_membership_check",
    "fit_bump_amplitude",
    "holder_floor",
]


@dataclass(frozen=True)
class SelectionMatrices:
    """Dyad-to-unit selection T, as matvecs: the p-th unordered pair
    (lexicographic) loads units pair_i[p] and pair_j[p], and T stacks two
    copies (both directions of each dyad load the same unit effects)."""

    n_units: int
    pair_i: np.ndarray
    pair_j: np.ndarray

    def t_matvec(self, x: np.ndarray) -> np.ndarray:
        tx = x[self.pair_i] + x[self.pair_j]
        return np.concatenate([tx, tx])

    def t_rmatvec(self, y: np.ndarray) -> np.ndarray:
        c = len(self.pair_i)
        yy = y[:c] + y[c:]
        out = np.zeros(self.n_units)
        np.add.at(out, self.pair_i, yy)
        np.add.at(out, self.pair_j, yy)
        return out


def build_selection(n_units: int) -> SelectionMatrices:
    if n_units < 2:
        raise ValueError("n_units must be >= 2")
    iu, ju = np.triu_indices(n_units, k=1)
    return SelectionMatrices(n_units=n_units, pair_i=iu, pair_j=ju)


def _core_matrix(n: int) -> np.ndarray:
    # I_N + T^T T = (2N - 3) I + 2 J
    return (2 * n - 3) * np.eye(n) + 2.0 * np.ones((n, n))


def kl_quadratic_form(k_vec: np.ndarray, n_units: int) -> np.ndarray:
    """(T K)^T (I + T T^T)^{-1} (T K) = K^T S (I + S)^{-1} K with
    S = T^T T = 2[(N-2) I + J]; accepts a batch of K vectors (rows)."""
    k = np.atleast_2d(np.asarray(k_vec, dtype=float))
    n = k.shape[1]
    if n != n_units:
        raise ValueError("k_vec length must equal n_units")
    a = 2.0 * n - 3.0
    ksum = k.sum(axis=1, keepdims=True)
    z = k / a - (2.0 * ksum / (a * (a + 2.0 * n)))
    zsum = z.sum(axis=1, keepdims=True)
    sz = 2.0 * (n - 2.0) * z + 2.0 * zsum
    out = np.einsum("rn,rn->r", k, sz)
    return out if np.ndim(k_vec) > 1 else float(out[0])


def _cg(matvec, b: np.ndarray, atol: float, maxiter: int) -> np.ndarray:
    """Conjugate gradient for matvec(z) = b from z = 0, stopping once
    norm(b - matvec(z)) < atol. Step for step scipy 1.17's
    scipy.sparse.linalg.cg with no preconditioner, so z keeps its bits; a b
    of norm 0 is returned as it is. Raises AssumptionViolation when maxiter
    steps do not converge, and at the first step whose rho = r.r is not
    finite or whose p.Ap is not finite and positive (alpha = rho / p.Ap would
    not be finite and positive), as an overflow in either dot leaves them."""
    if np.linalg.norm(b) == 0:
        return b.copy()
    z, r = np.zeros_like(b), b.copy()
    for step in range(maxiter):
        if np.linalg.norm(r) < atol:
            return z
        rho = np.dot(r, r)
        if not np.isfinite(rho):
            raise AssumptionViolation(f"conjugate gradient broke down at step {step + 1}: rho = {rho}")
        if step:
            p *= rho / rho_prev
            p += r
        else:
            p = r.copy()
        q = matvec(p)
        pq = np.dot(p, q)
        if not 0 < pq < math.inf:
            raise AssumptionViolation(f"conjugate gradient broke down at step {step + 1}: p.Ap = {pq}")
        alpha = rho / pq
        z += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise AssumptionViolation(f"conjugate gradient failed to converge (info={maxiter})")


def woodbury_sides(sel: SelectionMatrices, k_vec) -> tuple[float, float]:
    """Both sides of K^T K - (TK)^T (I + T T^T)^{-1} (TK) = K^T (I + T^T T)^{-1} K.

    Left side solves the big system by _cg through T matvecs, with the
    tolerances scipy.sparse.linalg.cg(rtol=1e-13, atol=1e-16 max(|TK|, 1),
    maxiter=200) takes, and returns scipy 1.17's result bit for bit; right
    side is a dense N x N solve. Their agreement certifies the Woodbury
    identity."""
    k = np.asarray(k_vec, dtype=float)
    n = sel.n_units
    if k.shape != (n,):
        raise ValueError(f"k_vec must have length {n}")
    tk = sel.t_matvec(k)

    def matvec(y):
        return y + sel.t_matvec(sel.t_rmatvec(y))

    with np.errstate(over="ignore"):  # _cg refuses the non-finite dots an overflow leaves
        scale = float(np.linalg.norm(tk))
        z = _cg(matvec, tk, atol=max(1e-16 * max(scale, 1.0), 1e-13 * scale), maxiter=200)
    lhs = float(k @ k - tk @ z)
    rhs = float(k @ np.linalg.solve(_core_matrix(n), k))
    return lhs, rhs


def woodbury_gap(sel: SelectionMatrices, k_vec) -> float:
    lhs, rhs = woodbury_sides(sel, k_vec)
    return lhs - rhs


# ---------------------------------------------------------------------------
# hypothesis constructions


@dataclass(frozen=True)
class MinimaxConstruction:
    """One construction for every N: the quantities that depend on N (h_N,
    psi_N, the packing, the hypotheses) take it as an argument.

    Alternative k carries the unit effects b_k(x) = L h_N^beta s sum_c
    K((x - c) / h_N) over its centres c, with s = 1/2 for the two-point
    pair (one alternative, two centres) and s = 1 for the packing (one
    alternative per grid centre)."""

    variant: str                 # "two-point" or "fano"
    beta: float
    l_const: float
    c0: float
    d_x: int
    kernel: KernelSpec           # bump kernel on R^d_x
    centers: tuple | None = None  # two-point: (x10, x20)

    def __post_init__(self):
        if self.variant not in ("two-point", "fano"):
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def share(self) -> float:
        return 0.5 if self.variant == "two-point" else 1.0

    def _rate_n(self, n_units: int) -> float:
        """The sample-size axis of h_N and psi_N: N, or N / ln N for the packing."""
        n = float(n_units)
        return n if self.variant == "two-point" else n / math.log(n)

    def h_n(self, n_units: int) -> float:
        return self.c0 * self._rate_n(n_units) ** (-1.0 / (2.0 * self.beta + self.d_x))

    def psi_n(self, n_units: int) -> float:
        return self._rate_n(n_units) ** (-self.beta / (2.0 * self.beta + self.d_x))

    def m_n(self, n_units: int) -> int:
        # floor keeps center spacing 1/m >= h, hence disjoint supports
        return int(math.floor(1.0 / self.h_n(n_units)))

    def fano_centers(self, n_units: int) -> np.ndarray:
        if self.variant != "fano":
            raise ValueError("centers grid exists only for the fano variant")
        m = self.m_n(n_units)
        if m**self.d_x < 2:
            raise PackingDegenerate(
                f"packing degenerate: m_N={m} gives {m ** self.d_x} hypothesis(es); "
                "increase N or decrease c0"
            )
        axes = [(np.arange(1, m + 1) - 0.5) / m] * self.d_x
        return axes_grid(axes)

    def hypothesis_centers(self, n_units: int) -> np.ndarray:
        """(H, C, d_x): the C centres of each of the H alternatives at N."""
        if self.variant == "two-point":
            return np.stack(self.centers)[None]
        return self.fano_centers(n_units)[:, None]

    def bumps(self, x: np.ndarray, centers: np.ndarray, n_units: int) -> np.ndarray:
        """K((x - c) / h_N) for every centre c: shape centers.shape[:-1] + x.shape[:-1]."""
        c = centers.reshape(centers.shape[:-1] + (1,) * (x.ndim - 1) + (self.d_x,))
        return eval_kernel(self.kernel, (x - c) / self.h_n(n_units))

    def unit_effects(self, x: np.ndarray, n_units: int, centers: np.ndarray | None = None) -> np.ndarray:
        """b_k(x) for every alternative k at points x (..., d_x): shape (H,) + x.shape[:-1].
        `centers`, if given, is hypothesis_centers(n_units), built once by a caller that
        evaluates many x."""
        if centers is None:
            centers = self.hypothesis_centers(n_units)
        bumps = self.bumps(x, centers, n_units)
        return self._scaled_sum(bumps.swapaxes(0, 1), n_units)

    def _scaled_sum(self, bumps, n_units: int) -> np.ndarray:
        """L h_N^beta s (bumps[0] + bumps[1] + ...), summed left to right
        (np.sum may pair the terms differently) and scaled once."""
        amplitude = self.l_const * self.h_n(n_units) ** self.beta * self.share
        return amplitude * functools.reduce(np.add, bumps)

    @property
    def k_at_zero(self) -> float:
        return self.kernel.k_max  # bump peaks at the origin


def _bump_kernel(beta: float, l_const: float, c0: float, d_x: int) -> KernelSpec:
    """The construction's bump kernel, once its parameters are checked."""
    for name, value in (("beta", beta), ("l_const", l_const), ("c0", c0)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if beta > 4:
        raise ValueError(f"beta must be <= 4 for the finite-difference Holder check, got {beta}")
    if d_x < 1:
        raise ValueError(f"d_x must be >= 1, got {d_x}")
    return make_kernel("bump", d_x, bump_beta=beta)


def make_two_point(beta: float, l_const: float, c0: float, d_x: int,
                   centers=None) -> MinimaxConstruction:
    kernel = _bump_kernel(beta, l_const, c0, d_x)
    if centers is None:
        centers = (np.full(d_x, 0.3), np.full(d_x, 0.7))
    centers = (np.asarray(centers[0], dtype=float), np.asarray(centers[1], dtype=float))
    return MinimaxConstruction(variant="two-point", beta=beta, l_const=l_const, c0=c0,
                               d_x=d_x, kernel=kernel, centers=centers)


def make_fano(beta: float, l_const: float, c0: float, d_x: int) -> MinimaxConstruction:
    return MinimaxConstruction(variant="fano", beta=beta, l_const=l_const, c0=c0, d_x=d_x,
                               kernel=_bump_kernel(beta, l_const, c0, d_x))


def hypothesis_g(con: MinimaxConstruction, k: int, w, n_units: int):
    """g_k(x1, x2) = b_k(x1) + b_k(x2) at w = (x1, x2) of shape (..., 2 d_x),
    over any leading axes; k = 0 is the null, and for fano k is a 1-based flat
    index into the packing."""
    w = np.asarray(w, dtype=float)
    d = con.d_x
    if w.ndim == 0 or w.shape[-1] != 2 * d:
        raise ValueError(f"w must have length {2 * d}")
    if k == 0:
        vals = np.zeros(w.shape[:-1])
    else:
        centers = con.hypothesis_centers(n_units)
        if not 1 <= k <= len(centers):
            raise ValueError(f"{con.variant} hypothesis index must be in 0..{len(centers)}")
        # x1's bumps, then x2's, in one sum
        bumps = [con.bumps(x, centers[k - 1], n_units) for x in (w[..., :d], w[..., d:])]
        vals = con._scaled_sum(np.concatenate(bumps), n_units)
    return float(vals) if w.ndim == 1 else vals


@dataclass(frozen=True)
class SeparationResult:
    gap: float
    required: float
    passed: bool
    a_const: float
    psi_n: float


def separation_check(con: MinimaxConstruction, k, l, grid, n_units: int) -> SeparationResult:
    """Sup over the grid of |g_k - g_l| against the 2 A psi_N separation."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    gk = hypothesis_g(con, k, grid, n_units)
    gl = hypothesis_g(con, l, grid, n_units)
    gap = float(np.max(np.abs(gk - gl)))
    psi = con.psi_n(n_units)
    a_const = con.l_const * con.k_at_zero * con.c0**con.beta * con.share
    required = 2.0 * a_const * psi if k != l else 0.0
    passed = gap >= required * (1.0 - 1e-12)
    return SeparationResult(gap=gap, required=required, passed=passed,
                            a_const=a_const, psi_n=psi)


# ---------------------------------------------------------------------------
# KL evaluations


@dataclass(frozen=True)
class KlReport:
    kl_mean: float
    kl_se: float
    bound: float
    n_h_dx: float


_KL_CHUNK_ELEMENTS = 1 << 14  # elements of a chunk's largest temporary: 128 KB


def _kl_monte_carlo(con: MinimaxConstruction, n_units: int, mc_reps: int,
                    seed: int) -> tuple[float, float, float, float]:
    """Mean and standard error over `mc_reps` uniform regressor draws x of the
    mean over the alternatives k of KL = (T b_k)^T Omega^{-1} (T b_k) / 2 with
    b_k = con.unit_effects(x, N); returns (h_N, N h_N^d_x, mean, se). The draws
    use stream role 10 for the two-point pair and 11 for the packing. Chunks
    of replications draw their x at once, in the stream order of one draw per
    replication, so that the H x C x chunk N x d_x bump arguments (H
    alternatives of C centres) hold at most 2^14 elements (128 KB), or one
    replication's; each replication's KL keeps the bits of its own draw's."""
    h = con.h_n(n_units)
    n_h = n_units * h**con.d_x
    if n_h < 1.0:
        raise AssumptionViolation(
            f"KL evaluation requires N h_N^d_x >= 1; got {n_h:.4f} at N={n_units}"
        )
    law = uniform_law(con.d_x)
    rng = _stream(seed, 10 if con.variant == "two-point" else 11)
    centers = con.hypothesis_centers(n_units)
    chunk = max(1, _KL_CHUNK_ELEMENTS // (centers.size * n_units))
    kls = np.empty(mc_reps)
    for r0 in range(0, mc_reps, chunk):
        kv = con.unit_effects(law.sample(rng, min(chunk, mc_reps - r0) * n_units), n_units, centers)
        kl = kl_quadratic_form(kv.reshape(-1, n_units), n_units).reshape(len(centers), -1)
        kls[r0:r0 + chunk] = np.mean(0.5 * kl.T.copy(), axis=1)  # contiguous rows add as one draw's np.mean
    return h, n_h, float(np.mean(kls)), float(np.std(kls, ddof=1) / math.sqrt(mc_reps))


def kl_two_point(con: MinimaxConstruction, n_units: int, mc_reps: int, seed: int) -> KlReport:
    """MC over regressor draws of KL(P0, P1) = E[ (TK)^T Omega^{-1} (TK) ] / 2,
    against the closed-form bound L^2 K_max^2 B3 c0^(2 beta + d_x) / 2, where
    B3 = 1 bounds the uniform regressor density."""
    if con.variant != "two-point":
        raise ValueError("kl_two_point requires a two-point construction")
    _, n_h, mean, se = _kl_monte_carlo(con, n_units, mc_reps, seed)
    bound = 0.5 * con.l_const**2 * con.k_at_zero**2 * con.c0 ** (2 * con.beta + con.d_x)
    return KlReport(kl_mean=mean, kl_se=se, bound=bound, n_h_dx=n_h)


@dataclass(frozen=True)
class FanoReport:
    avg_kl: float
    kl_se: float
    bound: float
    alpha_implied: float
    ln_m_n: float
    ln_m_lower: float
    m_n: int
    n_hypotheses: int


def fano_kl_average(con: MinimaxConstruction, n_units: int, mc_reps: int, seed: int) -> FanoReport:
    """MC average over the packing of KL(P_k, P_0), with the disjoint-support
    bound (N/M) L^2 h^(2 beta) K_max^2 / 2 and the ln M_N arithmetic check."""
    if con.variant != "fano":
        raise ValueError("fano_kl_average requires a fano construction")
    m_total = len(con.fano_centers(n_units))  # raises PackingDegenerate when M < 2
    h, _, avg, se = _kl_monte_carlo(con, n_units, mc_reps, seed)
    bound = 0.5 * con.l_const**2 * h ** (2 * con.beta) * con.k_at_zero**2 * n_units / m_total
    ln_m = math.log(m_total)
    ln_lower = con.d_x / (2.0 * con.beta + con.d_x + 1.0) * math.log(n_units)
    return FanoReport(avg_kl=avg, kl_se=se, bound=bound,
                      alpha_implied=avg / ln_m, ln_m_n=ln_m, ln_m_lower=ln_lower,
                      m_n=con.m_n(n_units), n_hypotheses=m_total)


# ---------------------------------------------------------------------------
# Holder class membership by finite differences


def holder_floor(beta: float) -> int:
    """Greatest integer strictly less than beta."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return int(math.ceil(beta)) - 1 if float(beta).is_integer() else int(math.floor(beta))


_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
}


def _multi_indices(d: int, total: int):
    if d == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(d - 1, total - head):
            yield (head,) + rest


def _fd_partial(g, pts: np.ndarray, s: tuple[int, ...], step: float) -> np.ndarray:
    """Central-difference estimate of D^s g at each row of pts."""
    offsets = [np.array([0.0])]
    coeffs = [np.array([1.0])]
    for order in s:
        off, cf = _STENCILS[order]
        offsets.append(np.asarray(off, dtype=float))
        coeffs.append(np.asarray(cf, dtype=float))
    total = np.zeros(pts.shape[0])
    d = pts.shape[1]
    for combo in axes_grid([np.arange(len(o)) for o in offsets[1:]]):
        shift = np.array([offsets[c + 1][combo[c]] for c in range(d)])
        weight = math.prod(coeffs[c + 1][combo[c]] for c in range(d))
        if weight == 0.0:
            continue
        total += weight * np.asarray(g(pts + step * shift), dtype=float)
    return total / step ** sum(s)


@dataclass(frozen=True)
class HolderReport:
    max_violation_ratio: float
    passed: bool
    n_pairs: int
    beta: float
    l_const: float


def holder_membership_check(g, beta: float, l_const: float, d: int,
                            n_pairs: int = 1500, seed: int = 0, tol: float = 0.05,
                            box: tuple[float, float] = (-1.0, 1.0)) -> HolderReport:
    """Sampled check that g lies in the Holder class: all order-floor(beta)
    partial derivatives satisfy |D^s g(w) - D^s g(w')| <= L ||w-w'||_inf^(beta-l).

    g must be vectorized over points (shape (..., d) -> (...))."""
    if beta > 4:
        raise ValueError("finite-difference check supports beta <= 4")
    l = holder_floor(beta)
    frac = beta - l
    rng = _stream(seed, 12)
    lo, hi = box
    width = hi - lo
    w = lo + rng.random((n_pairs, d)) * width
    direction = rng.standard_normal((n_pairs, d))
    direction /= np.max(np.abs(direction), axis=1, keepdims=True)
    log_r = rng.random(n_pairs)
    r = 10.0 ** (np.log10(1e-3 * width) + log_r * (np.log10(0.5 * width) - np.log10(1e-3 * width)))
    w2 = w + direction * r[:, None]
    dist = np.max(np.abs(w2 - w), axis=1)

    step = float(np.finfo(float).eps ** (1.0 / (2.0 + l)))
    max_ratio = 0.0
    for s in _multi_indices(d, l):
        d1 = _fd_partial(g, w, s, step)
        d2 = _fd_partial(g, w2, s, step)
        for vals, pts in ((d1, w), (d2, w2)):
            bad = ~np.isfinite(vals)
            if np.any(bad):
                where = pts[np.argmax(bad)]
                raise AssumptionViolation(
                    f"non-finite derivative estimate for multi-index {s} at point {where}"
                )
        ratio = np.abs(d1 - d2) / (l_const * dist**frac)
        max_ratio = max(max_ratio, float(np.max(ratio)))
    return HolderReport(max_violation_ratio=max_ratio, passed=max_ratio <= 1.0 + tol,
                        n_pairs=n_pairs, beta=beta, l_const=l_const)


def fit_bump_amplitude(beta: float, d: int, l_const: float = 0.5, margin: float = 0.1,
                       seed: int = 1234, n_pairs: int = 1200) -> float:
    """Bisect the bump amplitude so the product bump kernel passes the Holder
    check for Sigma(beta, l_const) with the given relative margin."""
    from .kernels import _bump_factor  # local import; kernels lazily calls back here

    def max_ratio(a: float) -> float:
        factor = _bump_factor(a)
        g = lambda pts: np.prod(factor.fn(np.asarray(pts, dtype=float)), axis=-1)
        rep = holder_membership_check(g, beta, l_const, d, n_pairs=n_pairs,
                                      seed=seed, tol=0.0, box=(-0.75, 0.75))
        return rep.max_violation_ratio

    target = 1.0 / (1.0 + margin)
    lo, hi = 1e-6, 1.0
    if max_ratio(hi) <= target:
        return hi
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if max_ratio(mid) <= target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-9:
            break
    return lo
