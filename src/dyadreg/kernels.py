# Product kernels on R^d with certified analytic constants.
#
# Conventions:
#   - every shipped kernel is a tensor product of one univariate factor
#     applied to each coordinate, K(u) = prod_c k(u_c);
#   - constants stored on the spec (k_max, l1_norm, slice_bound, lipschitz)
#     are upper bounds certified analytically or by deterministic numerical
#     search at construction time;
#   - `lipschitz` describes one of two smoothness regimes: compact support
#     with a global Lipschitz constant (tail_nu is None), or bounded
#     gradient with a polynomial tail exponent tail_nu > 1 beyond radius
#     support_l (unbounded-support kernels).

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "KernelSpec",
    "LipschitzInfo",
    "QuadratureConfig",
    "KERNEL_IDS",
    "bump_eta",
    "eval_kernel",
    "kernel_moment",
    "make_higher_order_kernel",
    "dominating_kernel",
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
class LipschitzInfo:
    # tail_nu None:  |K(w) - K(w')| <= lambda1 ||w - w'|| and K = 0 outside
    #                the ball of radius support_l (compact case).
    # tail_nu set:   ||grad K(w)||_inf <= lambda1 everywhere and
    #                <= lambda1 ||w||^-tail_nu for ||w|| > support_l.
    lambda1: float
    support_l: float
    tail_nu: float | None = None


@dataclass(frozen=True)
class _Factor:
    # One univariate kernel factor with its certified 1-d constants.
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray] | None
    sup: float
    l1: float
    support: float | None          # half-width; None = unbounded
    breaks: tuple[float, ...]      # kinks / sign changes, for panel alignment
    moment: Callable[[int], float] | None  # exact moments when available


@dataclass(frozen=True)
class KernelSpec:
    family: str
    dim: int
    order: int
    k_max: float
    l1_norm: float
    slice_bound: float
    lipschitz: LipschitzInfo | None
    factor: _Factor
    params: tuple = ()

    @property
    def coord_support(self) -> float | None:
        return self.factor.support


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


def dominating_kernel(spec: KernelSpec, u) -> float:
    """Majorant K* controlling kernel increments: |K(w2)-K(w1)| <= delta K*(w1)
    whenever ||w1 - w2|| <= delta <= support_l."""
    li = spec.lipschitz
    if li is None:
        raise ValueError(
            f"kernel family {spec.family!r} carries no Lipschitz data; "
            "no dominating kernel is defined"
        )
    u = np.asarray(u, dtype=float)
    if u.shape != (spec.dim,):
        raise ValueError(f"kernel has dim {spec.dim}, got point of shape {u.shape}")
    r = float(np.linalg.norm(u))
    scale = 2.0 * spec.dim
    if li.tail_nu is None:
        return scale * li.lambda1 if r <= 2.0 * li.support_l else 0.0
    if r <= 2.0 * li.support_l:
        return scale * li.lambda1
    return scale * (r - li.support_l) ** (-li.tail_nu)


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


def _factor_domain(factor: _Factor):
    if factor.support is None:
        return -_INF_RADIUS, _INF_RADIUS
    return -factor.support, factor.support


def _coord_moment(factor: _Factor, power: int, quad: QuadratureConfig) -> float:
    lo, hi = _factor_domain(factor)
    return _panel_integrate(lambda t: (t ** power) * factor.fn(t), lo, hi, factor.breaks, quad)


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


def _epan_deriv(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, -1.5 * t, 0.0)


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
        deriv=lambda t: -np.asarray(t, dtype=float) * _phi(t),
        sup=_PHI_MAX,
        l1=1.0,
        support=None,
        breaks=(),
        moment=_gauss_moment,
    )


def _epanechnikov_factor() -> _Factor:
    return _Factor(
        fn=_epan_fn,
        deriv=_epan_deriv,
        sup=0.75,
        l1=1.0,
        support=1.0,
        breaks=(-1.0, 1.0),
        moment=_epan_moment,
    )


def _boxcar_factor() -> _Factor:
    return _Factor(
        fn=_boxcar_fn,
        deriv=None,
        sup=1.0,
        l1=1.0,
        support=0.5,
        breaks=(-0.5, 0.5),
        moment=_boxcar_moment,
    )


def _bump_factor(a: float, quad: QuadratureConfig = QuadratureConfig(tol=1e-12)) -> _Factor:
    def fn(t):
        return a * bump_eta(2.0 * np.asarray(t, dtype=float))

    def deriv(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        v = 2.0 * t
        out = np.zeros_like(t)
        inside = np.abs(v) < 1.0
        vi = v[inside]
        out[inside] = 2.0 * a * np.exp(-1.0 / (1.0 - vi**2)) * (-2.0 * vi / (1.0 - vi**2) ** 2)
        return out

    l1 = _panel_integrate(lambda t: np.abs(fn(t)), -0.5, 0.5, (), quad)
    return _Factor(
        fn=fn,
        deriv=deriv,
        sup=a * math.exp(-1.0),
        l1=l1,
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
        base_fn, base_moment, support = _phi, _gauss_moment, None
        # d/dt [p phi] = (p' - t p) phi
        q = p.deriv() - np.polynomial.Polynomial([0.0, 1.0]) * p
        fn = lambda t: p(np.asarray(t, dtype=float)) * _phi(t)
        deriv = lambda t: q(np.asarray(t, dtype=float)) * _phi(t)
        # critical points of p*phi are roots of q; exact up to root finding
        cands = [0.0] + [float(r.real) for r in q.roots() if abs(r.imag) < 1e-10]
        sup = max(abs(p(t)) * float(_phi(t)) for t in cands) * (1.0 + 1e-12)
        breaks = tuple(sorted(float(r) for r in p.roots() if abs(r.imag) < 1e-12))
    elif base == "epanechnikov":
        base_fn, base_moment, support = _epan_fn, _epan_moment, 1.0
        fn = lambda t: p(np.asarray(t, dtype=float)) * _epan_fn(t)

        def deriv(t):
            t = np.asarray(t, dtype=float)
            inside = np.abs(t) <= 1.0
            val = p.deriv()(t) * 0.75 * (1.0 - t * t) + p(t) * (-1.5 * t)
            return np.where(inside, val, 0.0)

        grid = np.linspace(-1.0, 1.0, 200001)
        sup = float(np.max(np.abs(fn(grid)))) * (1.0 + 1e-12)
        breaks = tuple(sorted({-1.0, 1.0} | {
            float(r.real) for r in p.roots() if abs(r.imag) < 1e-12 and abs(r.real) < 1.0
        }))
    else:
        raise ValueError(f"unsupported base {base!r}")

    def moment(j: int) -> float:
        return float(sum(c[k] * base_moment(j + 2 * k) for k in range(len(c))))

    quad = QuadratureConfig(tol=1e-12)
    lo, hi = (-_INF_RADIUS, _INF_RADIUS) if support is None else (-support, support)
    l1 = _panel_integrate(lambda t: np.abs(fn(t)), lo, hi, breaks, quad)
    return _Factor(fn=fn, deriv=deriv, sup=sup, l1=l1, support=support, breaks=breaks, moment=moment)


# ---------------------------------------------------------------------------
# assembled d-dim specs


def _deriv_sup(factor: _Factor) -> float:
    lo, hi = _factor_domain(factor)
    grid = np.linspace(lo, hi, 200001)
    return float(np.max(np.abs(factor.deriv(grid)))) * (1.0 + 1e-9)


def _case_a_info(factor: _Factor, dim: int) -> LipschitzInfo:
    m1 = _deriv_sup(factor)
    lam = math.sqrt(dim) * m1 * factor.sup ** (dim - 1) * (1.0 + 1e-9)
    return LipschitzInfo(lambda1=lam, support_l=math.sqrt(dim) * factor.support, tail_nu=None)


def _case_b_info(factor: _Factor, dim: int, support_l: float = 1.0, nu: float = 2.0) -> LipschitzInfo:
    # product majorants |k| <= A0 e^{-t^2/4}, |k'| <= A1 e^{-t^2/4} give
    # ||grad K(w)||_inf <= A1 A0^(d-1) e^{-||w||^2/4}, which dominates the
    # lambda1 ||w||^-nu tail requirement.
    grid = np.linspace(-14.0, 14.0, 280001)
    damp = np.exp(grid * grid / 4.0)
    a0 = float(np.max(np.abs(factor.fn(grid)) * damp))
    a1 = float(np.max(np.abs(factor.deriv(grid)) * damp))
    m1 = _deriv_sup(factor)
    grad_sup = m1 * factor.sup ** (dim - 1)
    r_star = math.sqrt(2.0 * nu)
    peak = r_star if r_star >= support_l else support_l
    tail_const = a1 * a0 ** (dim - 1) * peak**nu * math.exp(-peak * peak / 4.0)
    lam = max(grad_sup, tail_const) * (1.0 + 1e-9)
    return LipschitzInfo(lambda1=lam, support_l=support_l, tail_nu=nu)


def _assemble(family: str, dim: int, order: int, factor: _Factor,
              lipschitz: LipschitzInfo | None, params: tuple = ()) -> KernelSpec:
    # slice bound: sup over the first ceil(d/2) coordinates, integrate the rest
    n_int = dim // 2
    slice_bound = factor.sup ** (dim - n_int) * factor.l1 ** n_int
    return KernelSpec(
        family=family,
        dim=dim,
        order=order,
        k_max=factor.sup ** dim,
        l1_norm=factor.l1 ** dim,
        slice_bound=slice_bound,
        lipschitz=lipschitz,
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
    if base_name == "gaussian":
        li = _case_b_info(factor, base.dim)
    else:
        li = _case_a_info(factor, base.dim)
    return _assemble("higher-order", base.dim, target_order, factor, li,
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
        return _assemble("gaussian-product", dim, 2, _gaussian_factor(),
                         _case_b_info(_gaussian_factor(), dim))
    if kernel_id == "epanechnikov":
        f = _epanechnikov_factor()
        return _assemble("epanechnikov-product", dim, 2, f, _case_a_info(f, dim))
    if kernel_id == "boxcar":
        # bounded and integrable, but discontinuous: no Lipschitz/tail data
        return _assemble("boxcar-product", dim, 2, _boxcar_factor(), None)
    if kernel_id == "bump":
        if bump_a is None:
            bump_a = DEFAULT_BUMP_AMPLITUDE.get((bump_beta, dim))
        if bump_a is None:
            from .minimax import fit_bump_amplitude

            bump_a = fit_bump_amplitude(bump_beta, dim)
        if not bump_a > 0:
            raise ValueError("bump amplitude must be positive")
        f = _bump_factor(bump_a)
        return _assemble("bump-product", dim, 2, f, _case_a_info(f, dim))
    if kernel_id == "gaussian_o4":
        return make_higher_order_kernel(make_kernel("gaussian", dim), 4)
    if kernel_id == "gaussian_o6":
        return make_higher_order_kernel(make_kernel("gaussian", dim), 6)
    raise ValueError(f"unknown kernel id {kernel_id!r}; known: {', '.join(KERNEL_IDS)}")
