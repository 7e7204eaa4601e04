import json
import math
import warnings

import numpy as np
import pytest

from conftest import naive_f_hat

from dyadreg.dgp import make_dgp, simulate
from dyadreg.estimator import BandwidthRule
from dyadreg.kernels import make_kernel
from dyadreg.rates import (RateExperiment, fit_exponent, measure_delta_n, product_grid,
                           rate_fit_json, rate_rows_csv, run_rate_experiment)

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


def test_measure_delta_n_uniform_interior():
    data = simulate(make_dgp("theorem1", "zero"), 400, 100)
    k = make_kernel("epanechnikov", 2)
    grid = product_grid(0.3, 0.7, 5, 2)
    val = measure_delta_n(data, k, 0.25, grid)
    assert val == pytest.approx(1.0, abs=0.25)  # f_W = 1 on the unit square


def test_measure_delta_n_outside_support():
    data = simulate(make_dgp("theorem1", "zero"), 100, 100)
    k = make_kernel("epanechnikov", 2)
    grid = product_grid(3.0, 4.0, 3, 2)
    assert measure_delta_n(data, k, 0.2, grid) == 0.0


def test_measure_delta_n_matches_naive_min():
    data = simulate(make_dgp("theorem1", "zero"), 10, 7)
    k = make_kernel("gaussian", 2)
    grid = product_grid(0.2, 0.8, 3, 2)
    ref = min(naive_f_hat(data, k, 0.4, w) for w in grid)
    assert measure_delta_n(data, k, 0.4, grid) == pytest.approx(ref, rel=1e-12)
    with pytest.raises(ValueError):
        measure_delta_n(data, k, 0.4, np.zeros((0, 2)))


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
