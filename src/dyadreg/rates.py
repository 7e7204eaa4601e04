"""Monte Carlo rate experiments: error curves over N and log-log exponents.

A rate experiment simulates `reps` datasets per sample size, evaluates the
regression estimator pointwise or in sup norm over a fixed grid, and fits
the log error against log N (pointwise) or log(N / ln N) (sup norm). Foil
fits against the dyad count n = N(N-1) and the naive d_W-based exponent are
reported alongside, since the whole point is which sample size and which
dimension govern the rate.

Replications of an additive DGP, on one point or a grid, contract
dgp._outcome_matmul's stream of the V draw and never hold the N x N outcome
matrix. Other DGPs contract simulate's dataset: on a grid their g part is a
second N^2 x G2 product, slower than simulate and one product. A sup-norm
study hands its grid's axes to the contraction (estimator._pair_sums).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dgp import GRID_POINTS_MAX, DgpSpec, _outcome_matmul, axes_grid, replicate, true_g_on_grid
from .estimator import BandwidthRule, _dense_sums, _nw, bandwidth, kernel_scale
from .kernels import KERNEL_IDS, make_kernel

__all__ = [
    "RateExperiment",
    "RateRow",
    "RateFit",
    "FitResult",
    "fit_exponent",
    "run_rate_experiment",
    "product_grid",
    "rate_rows_csv",
    "rate_fit_json",
]

_DEGENERATE_ERR = 1e-13


def product_grid(lo: float, hi: float, steps: int, dim: int) -> np.ndarray:
    return axes_grid([np.linspace(lo, hi, steps)] * dim)


@dataclass(frozen=True)
class RateExperiment:
    dgp: DgpSpec
    kernel_id: str
    rule: BandwidthRule
    mode: str                      # "pointwise" or "sup-norm"
    n_list: tuple[int, ...]
    reps: int
    seed: int
    w0: tuple[float, ...] | None = None
    grid_lo: float = 0.2
    grid_hi: float = 0.8
    grid_steps: int = 9
    metric: str = "median"         # which per-N statistic the slope is fit on

    def __post_init__(self):
        if self.mode not in ("pointwise", "sup-norm"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.kernel_id not in KERNEL_IDS:
            raise ValueError(f"unknown kernel id {self.kernel_id!r}; known: {', '.join(KERNEL_IDS)}")
        if len(self.n_list) < 4:
            raise ValueError("n_list must have at least 4 entries")
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ValueError("n_list must be strictly increasing")
        if self.n_list[0] < 3:
            raise ValueError(f"n_list entries must be >= 3, got {self.n_list[0]}")
        if self.reps < 50:
            raise ValueError("reps must be >= 50")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for n in self.n_list:
            kernel_scale(bandwidth(self.rule, n), 2 * self.dgp.d_x)
        if self.mode == "pointwise" and (self.w0 is None or len(self.w0) != 2 * self.dgp.d_x):
            raise ValueError(f"pointwise mode requires a w0 of {2 * self.dgp.d_x} coordinates")
        points = self.grid_steps ** (2 * self.dgp.d_x)
        if self.mode == "sup-norm" and not (self.grid_steps > 0 and points <= GRID_POINTS_MAX):
            raise ValueError(f"grid.steps must give 1 to {GRID_POINTS_MAX} grid points, got {self.grid_steps}")
        if self.dgp.g is None:
            raise ValueError(f"dgp {self.dgp.name!r} has no closed-form conditional mean "
                             "to measure the error against")
        if self.metric not in ("median", "mean", "rmse"):
            raise ValueError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class RateRow:
    n_units: int
    median_err: float
    mean_err: float
    rmse: float
    sd: float
    n_undefined: int
    n_excluded_reps: int


@dataclass(frozen=True)
class FitResult:
    slope: float
    se: float
    r2: float


def fit_exponent(points) -> FitResult:
    """OLS of log(error) on log(n_value); exact on synthetic power laws."""
    xs, ys = [], []
    for n_value, err in points:
        if err <= 0:
            warnings.warn(f"rejecting nonpositive error {err!r} at n={n_value}")
            continue
        xs.append(math.log(float(n_value)))
        ys.append(math.log(float(err)))
    if len(xs) < 4:
        raise ValueError("need at least 4 usable points to fit an exponent")
    x = np.asarray(xs)
    y = np.asarray(ys)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - intercept - slope * x
    dof = len(x) - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    se = math.sqrt(sigma2 / sxx)
    tss = float((y - y.mean()) @ (y - y.mean()))
    r2 = 1.0 - float(resid @ resid) / tss if tss > 0 else 1.0
    return FitResult(slope=slope, se=se, r2=r2)


@dataclass(frozen=True)
class RateFit:
    rows: tuple[RateRow, ...]
    slope: float
    slope_se: float
    r2: float
    theory_exponent: float
    foil_vs_n: float               # fitted exponent against dyad count N(N-1)
    foil_vs_dw: float              # theoretical exponent if d_W ruled the rate
    mode: str
    metric: str
    valid: bool
    degenerate: bool
    invalid_reason: str = ""


def _metric_err(row: RateRow, metric: str) -> float:
    return {"median": row.median_err, "mean": row.mean_err, "rmse": row.rmse}[metric]


def _rate_axis(mode: str, n_list) -> list[float]:
    """Sample-size axis of the fit: N (pointwise) or N / ln N (sup norm)."""
    return [float(n) for n in n_list] if mode == "pointwise" else [n / math.log(n) for n in n_list]


def run_rate_experiment(exp: RateExperiment) -> RateFit:
    d_x = exp.dgp.d_x
    kernel = make_kernel(exp.kernel_id, 2 * d_x)
    axes = None if exp.mode == "pointwise" else [np.linspace(exp.grid_lo, exp.grid_hi, exp.grid_steps)] * (2 * d_x)
    grid = np.atleast_2d(np.asarray(exp.w0, dtype=float)) if axes is None else axes_grid(axes)
    g_true = true_g_on_grid(exp.dgp, grid)
    streamed = exp.dgp.unit_part is not None  # contract the V stream, never build Y

    def max_error(drawn, h):
        """(undefined grid points, sup error over the defined ones or None)."""
        x, outcome_sums = drawn if streamed else (drawn.x, _dense_sums(drawn.y))
        res = _nw(x, outcome_sums, kernel, h, grid, axes)
        if not np.any(res.defined):
            return res.n_undefined, None
        return res.n_undefined, float(np.max(np.abs(res.g_hat[res.defined] - g_true[res.defined])))

    rows = []
    valid = True
    reason = ""
    draw = _outcome_matmul if streamed else None
    for n, stats in replicate(exp.dgp, exp.rule, exp.n_list, exp.reps, exp.seed, max_error, draw=draw):
        undefined = sum(u for u, _ in stats)
        errs = np.asarray([e for _, e in stats if e is not None])
        excluded = exp.reps - errs.size
        frac_undef = undefined / (exp.reps * grid.shape[0])
        if frac_undef > 0.10:
            valid = False
            reason = f"{frac_undef:.1%} undefined grid evaluations at N={n}"
        if errs.size == 0:
            valid = False
            reason = f"all replications undefined at N={n}"
            errs = np.array([math.nan])
        rows.append(RateRow(
            n_units=n,
            median_err=float(np.median(errs)),
            mean_err=float(np.mean(errs)),
            rmse=float(np.sqrt(np.mean(errs**2))),
            sd=float(np.std(errs, ddof=1)) if errs.size > 1 else math.nan,
            n_undefined=undefined,
            n_excluded_reps=excluded,
        ))

    metric_errs = [_metric_err(r, exp.metric) for r in rows]
    degenerate = any(not math.isfinite(me) or me < _DEGENERATE_ERR for me in metric_errs)
    theory = -exp.dgp.beta / (2.0 * exp.dgp.beta + d_x)
    foil_dw = -exp.dgp.beta / (2.0 * exp.dgp.beta + 2.0 * d_x)
    if degenerate:
        return RateFit(rows=tuple(rows), slope=math.nan, slope_se=math.nan, r2=math.nan,
                       theory_exponent=theory, foil_vs_n=math.nan, foil_vs_dw=foil_dw,
                       mode=exp.mode, metric=exp.metric, valid=valid,
                       degenerate=True, invalid_reason=reason or "errors at machine scale")
    fit = fit_exponent(list(zip(_rate_axis(exp.mode, exp.n_list), metric_errs)))
    foil_fit = fit_exponent([(n * (n - 1), me) for n, me in zip(exp.n_list, metric_errs)])
    return RateFit(rows=tuple(rows), slope=fit.slope, slope_se=fit.se, r2=fit.r2,
                   theory_exponent=theory, foil_vs_n=foil_fit.slope, foil_vs_dw=foil_dw,
                   mode=exp.mode, metric=exp.metric, valid=valid, degenerate=False,
                   invalid_reason=reason)


# --- stable text renderings (byte-identical across runs) --------------------


def rate_rows_csv(fit: RateFit) -> str:
    lines = ["n,median_err,mean_err,rmse,sd,n_undefined,n_excluded_reps"]
    for r in fit.rows:
        lines.append(
            f"{r.n_units},{r.median_err!r},{r.mean_err!r},{r.rmse!r},{r.sd!r},"
            f"{r.n_undefined},{r.n_excluded_reps}"
        )
    return "\n".join(lines) + "\n"


def rate_fit_json(fit: RateFit) -> str:
    def num(v: float) -> float | None:
        return v if math.isfinite(v) else None   # strict JSON has no NaN or Infinity

    payload = {
        "mode": fit.mode,
        "metric": fit.metric,
        "slope": num(fit.slope),
        "slope_se": num(fit.slope_se),
        "r2": num(fit.r2),
        "theory_exponent": num(fit.theory_exponent),
        "foil_vs_n": num(fit.foil_vs_n),
        "foil_vs_dw": num(fit.foil_vs_dw),
        "valid": fit.valid,
        "degenerate": fit.degenerate,
        "invalid_reason": fit.invalid_reason,
        "rows": [
            {
                "n": r.n_units,
                "median_err": num(r.median_err),
                "mean_err": num(r.mean_err),
                "rmse": num(r.rmse),
                "sd": num(r.sd),
                "n_undefined": r.n_undefined,
                "n_excluded_reps": r.n_excluded_reps,
            }
            for r in fit.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def plot_data(fit: RateFit) -> str:
    """Two-column (ln n_value, ln err) text for external plotting; rows whose
    error is not positive and finite have no logarithm and are left out."""
    lines = []
    for x, r in zip(_rate_axis(fit.mode, [r.n_units for r in fit.rows]), fit.rows):
        err = _metric_err(r, fit.metric)
        if math.isfinite(err) and err > 0:
            lines.append(f"{math.log(x)!r} {math.log(err)!r}\n")
    return "".join(lines)
