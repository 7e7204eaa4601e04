# Product kernels on R^d.
#
# Conventions:
#   - every shipped kernel is a tensor product of one univariate factor
#     applied to each coordinate, K(u) = prod_c k(u_c);
#   - the one constant stored on the spec, k_max = sup |K|, is an upper
#     bound certified at construction time (analytically, by root finding,
#     or on a dense grid with a relative margin); the estimator's denominator
#     cutoff and the minimax constructions read it.

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "KernelSpec",
    "QuadratureConfig",
    "KERNEL_IDS",
    "bump_eta",
    "eval_kernel",
    "kernel_moment",
    "make_higher_order_kernel",
    "make_kernel",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_PHI_MAX = 1.0 / _SQRT_2PI
_INF_RADIUS = 16.0  # integration radius for unbounded factors; tails < 1e-40
_POINTS_PER_PANEL = 24  # Gauss-Legendre nodes per quadrature panel
_INITIAL_PANELS = 8     # panels per segment before the first doubling

KERNEL_IDS = ("gaussian", "epanechnikov", "boxcar", "bump", "gaussian_o4", "gaussian_o6")


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-8
    max_doublings: int = 10


@dataclass(frozen=True)
class _Factor:
    # One univariate kernel factor with its certified sup.
    fn: Callable[[np.ndarray], np.ndarray]
    sup: float
    support: float | None          # half-width; None = unbounded
    breaks: tuple[float, ...]      # kinks / sign changes, for panel alignment
    moment: Callable[[int], float] | None  # exact moments when available


@dataclass(frozen=True)
class KernelSpec:
    family: str
    dim: int
    order: int
    k_max: float
    factor: _Factor
    params: tuple = ()


def bump_eta(u):
    """eta(u) = exp(-1/(1-u^2)) on |u| < 1, zero outside; C-infinity on R."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(arr)
    inside = np.abs(arr) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - arr[inside] ** 2))
    if np.ndim(u) == 0:
        return float(out[0])
    return out.reshape(np.shape(u))


def eval_kernel(spec: KernelSpec, u):
    """Evaluate K(u) at points u of shape (..., dim); a float for a single point."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[-1] != spec.dim:
        raise ValueError(f"kernel has dim {spec.dim}, got points of shape {u.shape}")
    vals = np.prod(spec.factor.fn(u), axis=-1)
    return float(vals) if u.ndim == 1 else vals


# ---------------------------------------------------------------------------
# 1-d quadrature on support-aligned panels


def _panel_integrate(f, lo: float, hi: float, breaks, quad: QuadratureConfig) -> float:
    """Adaptive composite Gauss-Legendre; panel edges include the breaks."""
    edges = sorted({lo, hi} | {b for b in breaks if lo < b < hi})
    nodes, weights = np.polynomial.legendre.leggauss(_POINTS_PER_PANEL)

    def estimate(panels_per_segment: int) -> float:
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            sub = np.linspace(a, b, panels_per_segment + 1)
            half = 0.5 * (sub[1:] - sub[:-1])
            mid = 0.5 * (sub[1:] + sub[:-1])
            pts = mid[:, None] + half[:, None] * nodes[None, :]
            total += float(np.sum(half[:, None] * weights[None, :] * f(pts)))
        return total

    panels = _INITIAL_PANELS
    prev = estimate(panels)
    for _ in range(quad.max_doublings):
        panels *= 2
        cur = estimate(panels)
        if abs(cur - prev) <= quad.tol:
            return cur
        prev = cur
    raise QuadratureFailure(
        f"quadrature did not converge to tol={quad.tol} after "
        f"{quad.max_doublings} refinements (last delta {abs(cur - prev):.3e})"
    )


def _coord_moment(factor: _Factor, power: int, quad: QuadratureConfig) -> float:
    r = _INF_RADIUS if factor.support is None else factor.support
    return _panel_integrate(lambda t: (t ** power) * factor.fn(t), -r, r, factor.breaks, quad)


def kernel_moment(spec: KernelSpec, multi_index, quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Numerical moment int u_1^{l_1} ... u_d^{l_d} K(u) du via per-coordinate
    quadrature (exact factorization for product kernels)."""
    l = np.asarray(multi_index)
    if l.shape != (spec.dim,):
        raise ValueError(f"multi_index must have length {spec.dim}, got shape {l.shape}")
    if np.any(l < 0) or not np.issubdtype(l.dtype, np.integer):
        raise ValueError("multi_index entries must be nonnegative integers")
    out = 1.0
    for power in l:
        out *= _coord_moment(spec.factor, int(power), quad)
    return out


# ---------------------------------------------------------------------------
# factor constructions


def _phi(t):
    return np.exp(-0.5 * np.asarray(t, dtype=float) ** 2) / _SQRT_2PI


def _gauss_moment(j: int) -> float:
    if j % 2 == 1:
        return 0.0
    out = 1.0
    for m in range(1, j, 2):
        out *= m
    return out


def _epan_fn(t):
    t = np.asarray(t, dtype=float)
    return 0.75 * np.maximum(0.0, 1.0 - t * t)


def _epan_moment(j: int) -> float:
    if j % 2 == 1:
        return 0.0
    return 3.0 / ((j + 1) * (j + 3))


def _boxcar_fn(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 0.5, 1.0, 0.0)


def _boxcar_moment(j: int) -> float:
    if j % 2 == 1:
        return 0.0
    return 0.5 ** j / (j + 1)


def _gaussian_factor() -> _Factor:
    return _Factor(
        fn=_phi,
        sup=_PHI_MAX,
        support=None,
        breaks=(),
        moment=_gauss_moment,
    )


def _epanechnikov_factor() -> _Factor:
    return _Factor(
        fn=_epan_fn,
        sup=0.75,
        support=1.0,
        breaks=(-1.0, 1.0),
        moment=_epan_moment,
    )


def _boxcar_factor() -> _Factor:
    return _Factor(
        fn=_boxcar_fn,
        sup=1.0,
        support=0.5,
        breaks=(-0.5, 0.5),
        moment=_boxcar_moment,
    )


def _bump_factor(a: float) -> _Factor:
    def fn(t):
        return a * bump_eta(2.0 * np.asarray(t, dtype=float))

    return _Factor(
        fn=fn,
        sup=a * math.exp(-1.0),
        support=0.5,
        breaks=(-0.5, 0.5),
        moment=None,
    )


def _poly_times_factor(coeffs_even, base: str) -> _Factor:
    """Factor p(t) * k_base(t) with p(t) = sum_j c_j t^(2j); base moments exact."""
    c = np.asarray(coeffs_even, dtype=float)
    full = np.zeros(2 * len(c) - 1)
    full[::2] = c  # ascending powers, even only
    p = np.polynomial.Polynomial(full)

    if base == "gaussian":
        base_moment, support = _gauss_moment, None
        # d/dt [p phi] = (p' - t p) phi
        q = p.deriv() - np.polynomial.Polynomial([0.0, 1.0]) * p
        fn = lambda t: p(np.asarray(t, dtype=float)) * _phi(t)
        # critical points of p*phi are roots of q; exact up to root finding
        cands = [0.0] + [float(r.real) for r in q.roots() if abs(r.imag) < 1e-10]
        sup = max(abs(p(t)) * float(_phi(t)) for t in cands) * (1.0 + 1e-12)
        breaks = tuple(sorted(float(r) for r in p.roots() if abs(r.imag) < 1e-12))
    elif base == "epanechnikov":
        base_moment, support = _epan_moment, 1.0
        fn = lambda t: p(np.asarray(t, dtype=float)) * _epan_fn(t)
        grid = np.linspace(-1.0, 1.0, 200001)
        sup = float(np.max(np.abs(fn(grid)))) * (1.0 + 1e-12)
        breaks = tuple(sorted({-1.0, 1.0} | {
            float(r.real) for r in p.roots() if abs(r.imag) < 1e-12 and abs(r.real) < 1.0
        }))
    else:
        raise ValueError(f"unsupported base {base!r}")

    def moment(j: int) -> float:
        return float(sum(c[k] * base_moment(j + 2 * k) for k in range(len(c))))

    return _Factor(fn=fn, sup=sup, support=support, breaks=breaks, moment=moment)


# ---------------------------------------------------------------------------
# assembled d-dim specs


def _assemble(family: str, dim: int, order: int, factor: _Factor,
              params: tuple = ()) -> KernelSpec:
    return KernelSpec(
        family=family,
        dim=dim,
        order=order,
        k_max=factor.sup ** dim,
        factor=factor,
        params=params,
    )


def make_higher_order_kernel(base: KernelSpec, target_order: int) -> KernelSpec:
    """Bias-reducing kernel: polynomial-times-base factor per coordinate whose
    moments vanish for 1 <= |l| < target_order, tensor-producted."""
    if base.family not in ("gaussian-product", "epanechnikov-product"):
        raise ValueError(f"higher-order construction supports gaussian/epanechnikov bases, got {base.family!r}")
    if target_order not in (2, 4, 6):
        raise ValueError(f"target_order must be one of 2, 4, 6, got {target_order}")
    if target_order == 2:
        return base
    q = target_order // 2 - 1
    m = base.factor.moment
    hankel = np.array([[m(2 * (j + k)) for k in range(q + 1)] for j in range(q + 1)])
    rhs = np.zeros(q + 1)
    rhs[0] = 1.0
    coeffs = np.linalg.solve(hankel, rhs)
    base_name = "gaussian" if base.family.startswith("gaussian") else "epanechnikov"
    factor = _poly_times_factor(coeffs, base_name)
    # validate the vanishing-moment contract numerically before shipping
    quad = QuadratureConfig(tol=1e-10)
    if abs(_coord_moment(factor, 0, quad) - 1.0) > 1e-8:
        raise AssertionError("higher-order construction lost unit mass")
    for j in range(1, target_order):
        if abs(_coord_moment(factor, j, quad)) > 1e-8:
            raise AssertionError(f"higher-order construction has nonvanishing moment {j}")
    return _assemble("higher-order", base.dim, target_order, factor,
                     params=(base_name, target_order, tuple(float(c) for c in coeffs)))


# Bump amplitudes certified by fit_bump_amplitude (minimax module) so that the
# product bump kernel passes the Holder membership check for Sigma(beta, 1/2)
# with a 10% margin; regenerated by tests/test_minimax.py.
DEFAULT_BUMP_AMPLITUDE = {
    (2.0, 1): 0.014691883015530052,
    (2.0, 2): 0.2011903937306697,
}


def make_kernel(kernel_id: str, dim: int, *, bump_a: float | None = None,
                bump_beta: float = 2.0) -> KernelSpec:
    """Build a kernel by its config-file id; dimension comes from the caller."""
    if dim < 1:
        raise ValueError("kernel dim must be >= 1")
    if kernel_id == "gaussian":
        return _assemble("gaussian-product", dim, 2, _gaussian_factor())
    if kernel_id == "epanechnikov":
        return _assemble("epanechnikov-product", dim, 2, _epanechnikov_factor())
    if kernel_id == "boxcar":
        return _assemble("boxcar-product", dim, 2, _boxcar_factor())
    if kernel_id == "bump":
        if bump_a is None:
            bump_a = DEFAULT_BUMP_AMPLITUDE.get((bump_beta, dim))
        if bump_a is None:
            from .minimax import fit_bump_amplitude

            bump_a = fit_bump_amplitude(bump_beta, dim)
        if not bump_a > 0:
            raise ValueError("bump amplitude must be positive")
        return _assemble("bump-product", dim, 2, _bump_factor(bump_a))
    if kernel_id == "gaussian_o4":
        return make_higher_order_kernel(make_kernel("gaussian", dim), 4)
    if kernel_id == "gaussian_o6":
        return make_higher_order_kernel(make_kernel("gaussian", dim), 6)
    raise ValueError(f"unknown kernel id {kernel_id!r}; known: {', '.join(KERNEL_IDS)}")
