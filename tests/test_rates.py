import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import naive_nw
from dyadreg import dgp, estimator
from dyadreg.dgp import REGRESSION_FUNCS, Additive, make_dgp, simulate, uniform_law
from dyadreg.estimator import BandwidthRule, _nw, nw_estimate
from dyadreg.kernels import make_kernel
from dyadreg.rates import (RateExperiment, fit_exponent, product_grid, rate_fit_json, rate_rows_csv,
                           run_rate_experiment)

# frozen output of a validated run (seed 314); guards against silent changes
GOLDEN_EXPERIMENT = dict(
    kernel_id="epanechnikov", c0=0.8, n_list=(30, 60, 120, 240), reps=60, seed=314,
    slope=-0.38157435169613446,
    medians=(0.30987497464615865, 0.16960216066673234,
             0.18707914981900897, 0.12419499199576883),
    foil=-0.18954352771637575,
)


def test_fit_exponent_exact_power_law():
    pts = [(n, n ** -0.4) for n in (50, 100, 200, 400, 800)]
    fit = fit_exponent(pts)
    assert fit.slope == pytest.approx(-0.4, abs=1e-12)
    assert fit.se == pytest.approx(0.0, abs=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_scale_invariant():
    pts = [(n, 3.0 * n ** -0.4) for n in (50, 100, 200, 400)]
    assert fit_exponent(pts).slope == pytest.approx(-0.4, abs=1e-12)


def test_fit_exponent_rejects_nonpositive_with_warning():
    pts = [(50, 1.0), (100, 0.5), (200, 0.0), (400, 0.125), (800, 0.0625)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_exponent(pts)
    assert any("nonpositive" in str(w.message) for w in caught)
    assert fit.slope == pytest.approx(-1.0, abs=1e-10)
    with pytest.raises(ValueError), pytest.warns(UserWarning, match="nonpositive"):
        fit_exponent([(50, 1.0), (100, -1.0), (200, 0.5), (400, 0.2)])


def test_golden_experiment_regression():
    g = GOLDEN_EXPERIMENT
    exp = RateExperiment(
        dgp=make_dgp("theorem1", "sin_additive"), kernel_id=g["kernel_id"],
        rule=BandwidthRule("pointwise-optimal", g["c0"], 2.0, 1),
        mode="pointwise", n_list=g["n_list"], reps=g["reps"], seed=g["seed"],
        w0=(0.5, 0.5), metric="median")
    fit = run_rate_experiment(exp)
    assert fit.slope == pytest.approx(g["slope"], abs=1e-9)
    assert fit.foil_vs_n == pytest.approx(g["foil"], abs=1e-9)
    for row, med in zip(fit.rows, g["medians"]):
        assert row.median_err == pytest.approx(med, abs=1e-12)
    # refit from the stored medians reproduces the slope
    refit = fit_exponent(list(zip(g["n_list"], g["medians"])))
    assert refit.slope == pytest.approx(g["slope"], abs=1e-9)


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_noiseless_constant_flagged_degenerate():
    exp = RateExperiment(
        dgp=make_dgp("noiseless", "constant"), kernel_id="gaussian",
        rule=BandwidthRule("pointwise-optimal", 1.0, 2.0, 1),
        mode="pointwise", n_list=(10, 20, 40, 80), reps=50, seed=0,
        w0=(0.5, 0.5))
    fit = run_rate_experiment(exp)
    assert fit.degenerate
    assert math.isnan(fit.slope)
    payload = json.loads(rate_fit_json(fit), parse_constant=_refuse_constant)
    assert payload["slope"] is None and payload["r2"] is None


def test_experiment_validation():
    dgp = make_dgp("theorem1", "zero")
    rule = BandwidthRule("fixed", 0.5)
    with pytest.raises(ValueError):
        RateExperiment(dgp=dgp, kernel_id="gaussian", rule=rule, mode="pointwise",
                       n_list=(10, 20, 40), reps=50, seed=0, w0=(0.5, 0.5))
    with pytest.raises(ValueError):
        RateExperiment(dgp=dgp, kernel_id="gaussian", rule=rule, mode="pointwise",
                       n_list=(10, 20, 40, 80), reps=10, seed=0, w0=(0.5, 0.5))
    with pytest.raises(ValueError):
        RateExperiment(dgp=dgp, kernel_id="gaussian", rule=rule, mode="pointwise",
                       n_list=(10, 20, 40, 80), reps=50, seed=0)


def test_rate_fit_serialization_deterministic():
    exp = RateExperiment(
        dgp=make_dgp("theorem1", "sin_additive"), kernel_id="epanechnikov",
        rule=BandwidthRule("pointwise-optimal", 0.8, 2.0, 1),
        mode="pointwise", n_list=(20, 40, 80, 160), reps=50, seed=5,
        w0=(0.5, 0.5))
    f1 = run_rate_experiment(exp)
    f2 = run_rate_experiment(exp)
    assert rate_fit_json(f1) == rate_fit_json(f2)
    assert rate_rows_csv(f1) == rate_rows_csv(f2)


def test_dimension_discrimination(pointwise_rate_fit):
    # d_X = 1 (so d_W = 2): the fitted exponent should sit near -beta/(2beta+1)
    # = -0.4, not the naive d_W value -beta/(2beta+2) = -1/3, with a CI tight
    # enough to separate them (half-width < 0.033) or be flagged inconclusive
    fit = pointwise_rate_fit
    half_width = 2.0 * fit.slope_se
    if half_width >= 0.033:
        pytest.skip(f"slope CI half-width {half_width:.3f} too wide to discriminate")
    assert abs(fit.slope - fit.theory_exponent) < abs(fit.slope - fit.foil_vs_dw)
    assert fit.theory_exponent == pytest.approx(-0.4)
    assert fit.foil_vs_dw == pytest.approx(-1.0 / 3.0)


def test_sup_mode_runs_and_counts_undefined():
    exp = RateExperiment(
        dgp=make_dgp("theorem1", "sin_additive"), kernel_id="boxcar",
        rule=BandwidthRule("fixed", 0.02), mode="sup-norm",
        n_list=(10, 15, 20, 25), reps=50, seed=1,
        grid_lo=0.2, grid_hi=0.8, grid_steps=3)
    fit = run_rate_experiment(exp)
    # tiny boxcar windows leave many grid points empty -> flagged invalid
    assert not fit.valid
    assert sum(r.n_undefined for r in fit.rows) > 0


def test_sd_is_nan_where_fewer_than_two_replications_are_defined():
    # boxcar windows of width 0.01 leave N=10 with no defined replication and
    # N=40 with one; their sd is NaN, without a numpy warning
    exp = RateExperiment(
        dgp=make_dgp("theorem1", "sin_additive"), kernel_id="boxcar",
        rule=BandwidthRule("fixed", 0.01), mode="pointwise",
        n_list=(10, 20, 30, 40), reps=50, seed=0, w0=(0.5, 0.5))
    fit = run_rate_experiment(exp)
    defined = [exp.reps - r.n_excluded_reps for r in fit.rows]
    assert defined[0] == 0 and defined[3] == 1
    for row, n_defined in zip(fit.rows, defined):
        assert math.isnan(row.sd) == (n_defined < 2)
    assert rate_rows_csv(fit).splitlines()[4].split(",")[4] == "nan"
    assert json.loads(rate_fit_json(fit))["rows"][3]["sd"] is None


@pytest.mark.parametrize("g_name", ["sin_additive", "product"])  # streamed, and simulate's dataset
def test_sup_norm_study_gives_equal_outputs_on_any_pool(monkeypatch, g_name):
    """A sup-norm study hands its grid's axes to the contraction, so no
    replication recovers them, and its outputs on pools of 8 and 1 threads
    are equal."""
    recovered = []
    grid_axes = estimator._grid_axes

    def counted(grid):
        recovered.append(len(grid))
        return grid_axes(grid)

    monkeypatch.setattr(estimator, "_grid_axes", counted)
    exp = RateExperiment(dgp=make_dgp("theorem1", g_name, d_x=2), kernel_id="epanechnikov",
                         rule=BandwidthRule("uniform-optimal", 0.8, beta=2.0, d_x=2), mode="sup-norm",
                         n_list=(20, 30, 40, 50), reps=50, seed=8, grid_steps=4)
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (8, 1):
            monkeypatch.setattr(dgp, "_THREADS", threads)
            fit = run_rate_experiment(exp)
            outputs.append((rate_rows_csv(fit), rate_fit_json(fit)))
    finally:
        sys.setswitchinterval(interval)
    assert recovered == []
    assert outputs[0] == outputs[1]


# --- the streamed path of additive DGPs: dgp._outcome_matmul through estimator._nw ---

_B = dgp._V_BLOCK_ROWS
_STREAM_SIZES = (2, 3, _B, _B + 1, _B + 2, 65)
_ADDITIVE = [name for name, g in REGRESSION_FUNCS.items() if isinstance(g, Additive)]


def _streamed(spec, n, seed, kernel, h, grid):
    return _nw(*dgp._outcome_matmul(spec, n, seed), kernel, h, grid)


def _product_scales(res, data, kernel, h):
    """Per grid point of res, the scale s of psi's N^2 products a_i Y_ij b_j
    with |Y_ij| taken as 1: sum a sum b over N(N-1), times the kernel scale."""
    n, d_x = data.x.shape
    a, b = (np.prod(kernel.factor.fn((data.x[:, None, :] - half) / h), axis=-1)
            for half in (res.grid[:, :d_x], res.grid[:, d_x:]))
    return a.sum(axis=0) * b.sum(axis=0) * estimator.kernel_scale(h, kernel.dim) / (n * (n - 1))


def _g_hat_near(g_hat, g_ref, f_ref, s, y_max):
    """Whether g_hat is g_ref, NaN where it is NaN, else to rel 1e-12 but for a
    few roundings of the scale s of all N^2 products, since psi sums outcomes
    of both signs: 4 eps s / f (|g| + max |Y|)."""
    if math.isnan(g_ref):
        return math.isnan(g_hat)
    return abs(g_hat - g_ref) <= 1e-12 * abs(g_ref) + 4 * np.finfo(float).eps * s / f_ref * (abs(g_ref) + y_max)


def _near_the_pair_loop(res, data, kernel, h):
    """Each grid point of res is the pair-loop oracle's to rel 1e-12: f, the
    sum of a_i (J b)_i over dgp._off_diagonal_sums' J b, outright; g_hat but
    for the rounding of _g_hat_near."""
    y_max = np.abs(data.y).max()
    for w, g_hat, f_hat, s in zip(res.grid, res.g_hat, res.f_hat, _product_scales(res, data, kernel, h)):
        g_ref, f_ref = naive_nw(data, kernel, h, w)
        assert abs(f_hat - f_ref) <= 1e-12 * f_ref, w
        assert _g_hat_near(g_hat, g_ref, f_ref, s, y_max), w


@pytest.mark.parametrize("kernel_id", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("law", ["uniform", "truncnorm"])
@pytest.mark.parametrize("d_x", [1, 2])
def test_streamed_estimate_is_simulates_nw_estimate(d_x, law, kernel_id):
    """At the V walk's block edges, for every shipped additive g, on one point
    and on product grids: f_hat and defined are nw_estimate's bit for bit and
    g_hat is nw_estimate's to rel 1e-12 and the rounding of _g_hat_near, also
    where the estimate is undefined. On one point g_hat is also the pair-loop
    oracle's to rel 1e-12 at N <= 3 and N = 33; on grid points at N <= 3 it is
    the oracle's to the same rounding (_near_the_pair_loop)."""
    kernel = make_kernel(kernel_id, 2 * d_x)
    h = 0.3 if kernel_id == "gaussian" else 0.5
    grids = ([np.full(2 * d_x, 0.5)], [np.full(2 * d_x, 40.0)],  # no pair has weight at the second
             product_grid(-1.0, 1.0, 3, 2 * d_x), product_grid(-1.0, 1.0, 5, 2 * d_x))
    undefined = defined = 0
    for g_name in _ADDITIVE:
        spec = make_dgp("theorem1", g_name, d_x=d_x, law=law)
        for n in _STREAM_SIZES:
            data = simulate(spec, n, 11)
            for grid in grids:
                res, ref = _streamed(spec, n, 11, kernel, h, grid), nw_estimate(data, kernel, h, grid)
                assert res.f_hat.tobytes() == ref.f_hat.tobytes(), (g_name, n, len(grid))
                assert res.defined.tobytes() == ref.defined.tobytes(), (g_name, n, len(grid))
                scales, y_max = _product_scales(res, data, kernel, h), np.abs(data.y).max()
                for p, (g_hat, g_ref, f_ref, s) in enumerate(zip(res.g_hat, ref.g_hat, ref.f_hat, scales)):
                    assert _g_hat_near(g_hat, g_ref, f_ref, s, y_max), (g_name, n, len(grid), p)
                if len(grid) > 1:
                    if n <= 3:
                        _near_the_pair_loop(res, data, kernel, h)
                elif n <= 3 or (n == _B + 1 and grid[0][0] == 0.5):
                    g_ref, f_ref = naive_nw(data, kernel, h, grid[0])
                    assert res.f_hat[0] == pytest.approx(f_ref, rel=1e-12, abs=1e-300), (g_name, n)
                    assert res.g_hat[0] == pytest.approx(g_ref, rel=1e-12, abs=0, nan_ok=True), (g_name, n)
                undefined += res.n_undefined
                defined += int(res.defined.sum())
    assert undefined and defined


def test_streamed_path_refuses_what_simulate_refuses():
    """NaN unit effects and a NaN regressor law raise simulate's ValueError, a
    DGP with no unit part cannot be streamed, and NaN weights, which make psi
    NaN, raise nothing."""
    kernel, w0 = make_kernel("gaussian", 2), np.array([0.5, 0.5])
    draws = (simulate, lambda *args: _streamed(*args, kernel, 0.3, [w0]))
    spec = replace(make_dgp("theorem1"), g=Additive(lambda x: np.where(x[..., 0] > 0.5, np.nan, 0.5)))
    for draw in draws:
        with pytest.raises(ValueError, match="off-diagonal outcomes must be finite"):
            draw(spec, 70, 1)
    nan_law = replace(uniform_law(1), sample=lambda rng, n: np.full((n, 1), np.nan))
    for g_name in ("sin_additive", "zero"):  # the zero g leaves every outcome finite
        spec = replace(make_dgp("theorem1", g_name), regressor_law=nan_law)
        for draw in draws:
            with pytest.raises(ValueError, match="must be finite"):
                draw(spec, 70, 1)
    sin = make_dgp("theorem1")
    for spec in (make_dgp("theorem1", "product"), make_dgp("threshold_graphon"),
                 replace(sin, g=lambda x1, x2: sin.g(x1, x2))):  # a swapped g leaves no unit part behind
        with pytest.raises(ValueError, match="is not additive"):
            dgp._outcome_matmul(spec, 70, 1)
    res = _streamed(sin, 70, 1, kernel, 0.3, [[np.nan, 0.5]])
    assert res.n_undefined == 1 and math.isnan(res.g_hat[0])


def test_streamed_replication_allocates_under_a_quarter_of_one_n_by_n_array():
    spec, kernel, n = make_dgp("theorem1", "sin_additive"), make_kernel("gaussian", 2), 600
    _streamed(spec, n, 1, kernel, 0.2, [[0.5, 0.5]])
    tracemalloc.start()
    try:
        _streamed(spec, n, 1, kernel, 0.2, [[0.5, 0.5]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * n * n


def test_streamed_grid_replication_allocates_under_half_of_one_n_by_n_array():
    # the weights a = b and Y b, N x 49 each, take 0.16 of 8 N^2 here, the V walk most of the rest
    spec, kernel, n = make_dgp("theorem1", "sin_additive", d_x=2), make_kernel("gaussian", 4), 600
    grid = product_grid(0.2, 0.8, 7, 4)
    _streamed(spec, n, 1, kernel, 0.2, grid)
    tracemalloc.start()
    try:
        _streamed(spec, n, 1, kernel, 0.2, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n


@pytest.mark.parametrize("kind, g_name, mode, simulated", [
    ("theorem1", "sin_additive", "pointwise", 0),
    ("theorem1", "sin_additive", "sup-norm", 0),
    ("theorem1", "product", "pointwise", 200),
    ("threshold_graphon", "sin_additive", "pointwise", 200),
])
def test_only_additive_dgps_skip_simulate(monkeypatch, kind, g_name, mode, simulated):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return simulate(*args)

    monkeypatch.setattr(dgp, "simulate", counted)
    exp = RateExperiment(dgp=make_dgp(kind, g_name), kernel_id="gaussian",
                         rule=BandwidthRule("pointwise-optimal", 0.8), mode=mode, n_list=(20, 30, 40, 50),
                         reps=50, seed=3, w0=(0.5, 0.5), grid_steps=3)
    assert run_rate_experiment(exp).rows[0].n_excluded_reps == 0
    assert len(calls) == simulated
