"""Dyadic Nadaraya-Watson estimator, kernel averages, and bandwidth rules.

The regression estimate at w = (w1, w2) is the ratio of two pair averages,

    psi_hat(w) = (1 / N(N-1)) sum_{i != j} Y_ij K_h(W_ij - w),
    f_hat(w)   = (1 / N(N-1)) sum_{i != j}      K_h(W_ij - w),

with K_h(u) = h^-d_W K(u / h) and W_ij = (X_i, X_j). For product kernels the
pair sums factor as a^T Y b with per-unit weight vectors a, b, which is what
the implementation computes (the naive pair sweep lives in the test suite as
an independent oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dgp import DyadicDataset
from .errors import TruncationInfeasible
from .kernels import KernelSpec

__all__ = [
    "BandwidthRule",
    "TruncationRule",
    "TruncationBounds",
    "NwResult",
    "bandwidth",
    "a_n",
    "a_n_star",
    "psi_hat",
    "truncated_psi",
    "f_hat_w",
    "nw_estimate",
    "truncation_bounds",
    "truncation_threshold",
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


def a_n(n_units: int, h: float, d_x: int) -> float:
    """Uniform deviation scale (ln N / (N h^d_x))^(1/2)."""
    if n_units < 3 or h <= 0:
        raise ValueError("need n_units >= 3 and h > 0")
    return math.sqrt(math.log(n_units) / (n_units * h**d_x))


def a_n_star(n_units: int, h: float, d_x: int, beta: float) -> float:
    """Deviation-plus-bias scale a_N + h^beta."""
    return a_n(n_units, h, d_x) + h**beta


# ---------------------------------------------------------------------------
# kernel pair averages


def _weights(data: DyadicDataset, kernel: KernelSpec, h: float, grid) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit weights (N, G): A[i, g] = prod_c k((x_ic - w_gc)/h) over the
    first d_x coordinates of grid point w_g, B[j, g] likewise over the last d_x.
    k runs once per distinct value of a grid coordinate; np.take gathers it into
    C-ordered columns, so nw_estimate sums as for weights built point by point."""
    if kernel.dim != 2 * data.d_x:
        raise ValueError(f"kernel dim {kernel.dim} != 2 d_x = {2 * data.d_x}")
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.ndim != 2 or grid.shape[1] != kernel.dim:
        raise ValueError(f"grid points must have length {kernel.dim}")
    d = data.d_x
    def factor(c):
        values, inverse = np.unique(grid[:, c], return_inverse=True)
        return np.take(kernel.factor.fn((data.x[:, c % d, None] - values) / h), inverse, axis=1)
    a, b = factor(0), factor(d)
    for c in range(1, d):
        a *= factor(c)
        b *= factor(d + c)
    return a, b


def _pair_sums(data: DyadicDataset, kernel: KernelSpec, h: float, grid,
               y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair averages (psi, f) over the grid: psi contracts the outcome matrix y
    (zero diagonal) as a^T y b, f the all-ones matrix off the diagonal."""
    a, b = _weights(data, kernel, h, grid)
    n = a.shape[0]
    scale = h ** (-kernel.dim) / (n * (n - 1))
    psi = np.einsum("ng,ng->g", a, y @ b) * scale
    f = (a.sum(axis=0) * b.sum(axis=0) - np.einsum("ng,ng->g", a, b)) * scale
    return psi, f


def psi_hat(data: DyadicDataset, kernel: KernelSpec, h: float, w) -> float:
    """Kernel-weighted outcome average over ordered pairs."""
    return float(_pair_sums(data, kernel, h, [w], data.y)[0][0])


def truncated_psi(data: DyadicDataset, kernel: KernelSpec, h: float, tau: float, w) -> float:
    """psi_hat with outcomes zeroed where |Y_ij| >= tau; equals psi_hat once
    tau exceeds max |Y_ij|."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    return float(_pair_sums(data, kernel, h, [w], data.y * (np.abs(data.y) < tau))[0][0])


def f_hat_w(data: DyadicDataset, kernel: KernelSpec, h: float, w) -> float:
    """Kernel density estimate of f_W at w (outcome-free pair average)."""
    return float(_pair_sums(data, kernel, h, [w], data.y)[1][0])


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
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    num, den = _pair_sums(data, kernel, h, grid, data.y)
    eps_denom = 1e-12 * kernel.k_max * h ** (-kernel.dim)
    defined = den > eps_denom
    g_hat = np.full(den.shape, np.nan)
    np.divide(num, den, out=g_hat, where=defined)
    return NwResult(grid=grid, g_hat=g_hat, f_hat=den, defined=defined)


# ---------------------------------------------------------------------------
# truncation thresholds (uniform-convergence machinery)


@dataclass(frozen=True)
class TruncationRule:
    s: float  # moment order (> 2, or math.inf for bounded Y)

    def __post_init__(self):
        if not (self.s > 2):
            raise ValueError("moment order s must exceed 2")


@dataclass(frozen=True)
class TruncationBounds:
    upper_deviation: float    # tau << a_N^-1
    upper_degenerate: float   # tau << (N/ln N) h^(3/2 d_x)
    lower_bias: float         # tau >> a_N^(-1/(s-1))
    lower_residual: float     # tau >> min((N^2 phi_N)^(1/s), (a_N h^(2 d_x))^(-1/(s-1)))
    lower: float
    upper: float
    feasible: bool
    margin: float
    binding: str


def truncation_bounds(s: float, n_units: int, h: float, d_x: int) -> TruncationBounds:
    """The four finite-N inequalities a valid threshold must satisfy."""
    n = float(n_units)
    a = a_n(n_units, h, d_x)
    upper_dev = 1.0 / a
    upper_deg = (n / math.log(n)) * h ** (1.5 * d_x)
    if math.isinf(s):
        lower_bias = lower_res = 1.0
        name_lo = "1 (lower bounds degenerate, s = inf)"
    else:
        phi = (math.log(math.log(n))) ** 2 * math.log(n)
        lower_bias = a ** (-1.0 / (s - 1.0))
        lower_res = min((n**2 * phi) ** (1.0 / s), (a * h ** (2 * d_x)) ** (-1.0 / (s - 1.0)))
        name_lo = ("a_N^(-1/(s-1))" if lower_bias > lower_res
                   else "min((N^2 phi_N)^(1/s), (a_N h^(2 d_x))^(-1/(s-1)))")
    lower = max(lower_bias, lower_res)
    upper = min(upper_dev, upper_deg)
    feasible = lower < upper
    name_hi = "a_N^(-1)" if upper_dev < upper_deg else "(N/ln N) h^(3/2 d_x)"
    binding = f"{name_lo} vs {name_hi}"
    return TruncationBounds(upper_deviation=upper_dev, upper_degenerate=upper_deg,
                            lower_bias=lower_bias, lower_residual=lower_res,
                            lower=lower, upper=upper, feasible=feasible,
                            margin=upper / lower, binding=binding)


def truncation_threshold(rule: TruncationRule, n_units: int, h: float, d_x: int) -> float:
    """Geometric midpoint of the feasible threshold interval (log scale);
    with s = inf the lower bounds degenerate and the threshold is the square
    root of the product of the two upper bounds."""
    tb = truncation_bounds(rule.s, n_units, h, d_x)
    if not tb.feasible:
        raise TruncationInfeasible(
            f"no feasible truncation threshold at N={n_units}, h={h:.6g}, s={rule.s}: "
            f"required {tb.binding}, but lower bound {tb.lower:.6g} >= upper bound {tb.upper:.6g}"
        )
    if math.isinf(rule.s):
        return math.sqrt(tb.upper_deviation * tb.upper_degenerate)
    return math.sqrt(tb.lower * tb.upper)
