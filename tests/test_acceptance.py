"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Experiment knobs the
criteria leave open (kernel id, bandwidth constant, seeds) are pinned here
to values calibrated over seed ensembles; compact kernels are preferred
where support truncation at the regressor boundary would otherwise drift
the fitted constants.
"""

import math
import time

import numpy as np

from conftest import f_hat_w, naive_f_hat, naive_nw, naive_psi_hat, psi_hat

from dyadreg.cli import main
from dyadreg.decomposition import variance_dominance
from dyadreg.dgp import make_dgp, replicate, simulate
from dyadreg.estimator import BandwidthRule, bandwidth, nw_estimate
from dyadreg.kernels import kernel_moment, make_kernel
from dyadreg.minimax import (build_selection, fano_kl_average, holder_membership_check,
                             hypothesis_g, kl_two_point, make_fano, make_two_point,
                             separation_check, woodbury_sides)
from dyadreg.rates import RateExperiment, fit_exponent, rate_fit_json, run_rate_experiment

W0 = np.array([0.5, 0.5])


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# --- criterion 1: oracle equivalence ----------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(50):
        d_x = int(rng.integers(1, 3))
        n = int(rng.integers(3, 13))
        spec = make_dgp("theorem1", "sin_additive", d_x=d_x)
        data = simulate(spec, n, 9000 + trial)
        kernel = make_kernel(["gaussian", "epanechnikov", "boxcar"][trial % 3], 2 * d_x)
        h = float(rng.uniform(0.25, 0.9))
        w = rng.uniform(0.0, 1.0, 2 * d_x)
        p, f = psi_hat(data, kernel, h, w), f_hat_w(data, kernel, h, w)
        p_ref, f_ref = naive_psi_hat(data, kernel, h, w), naive_f_hat(data, kernel, h, w)
        g_ref, _ = naive_nw(data, kernel, h, w)
        res = nw_estimate(data, kernel, h, [w])
        scale_p = max(abs(p_ref), 1e-300)
        scale_f = max(abs(f_ref), 1e-300)
        worst = max(worst, abs(p - p_ref) / scale_p if p_ref != 0 else abs(p))
        worst = max(worst, abs(f - f_ref) / scale_f if f_ref != 0 else abs(f))
        if res.defined[0] and not math.isnan(g_ref):
            worst = max(worst, abs(res.g_hat[0] - g_ref) / max(abs(g_ref), 1e-300))
        else:
            assert not res.defined[0] and math.isnan(g_ref)
    elapsed = time.monotonic() - t0
    _report(1, worst <= 1e-12 and elapsed < 5.0,
            f"max relative deviation {worst:.2e} over 50 instances in {elapsed:.2f}s")


# --- criteria 2 and 4: pointwise rate and effective sample size -------------


def test_criterion_2_pointwise_rate(pointwise_rate_fit):
    fit = pointwise_rate_fit
    ok = -0.50 <= fit.slope <= -0.30 and fit.valid and not fit.degenerate
    _report(2, ok, f"RMSE exponent vs ln N = {fit.slope:.4f} (theory -0.40, band [-0.50, -0.30])")


def test_criterion_4_effective_sample_size(pointwise_rate_fit):
    fit = pointwise_rate_fit
    ok = -0.25 <= fit.foil_vs_n <= -0.15
    _report(4, ok, f"exponent vs ln N(N-1) = {fit.foil_vs_n:.4f} (band [-0.25, -0.15], "
                   f"half the N exponent {fit.slope:.4f})")


# --- criterion 3: sup-norm rate ----------------------------------------------


def test_criterion_3_sup_norm_rate():
    exp = RateExperiment(
        dgp=make_dgp("theorem1", "sin_additive"),
        kernel_id="epanechnikov",
        rule=BandwidthRule("uniform-optimal", 0.6, beta=2.0, d_x=1),
        mode="sup-norm", n_list=(50, 100, 200, 400), reps=100, seed=7,
        grid_lo=0.2, grid_hi=0.8, grid_steps=9, metric="median")
    fit = run_rate_experiment(exp)
    ok = abs(fit.slope - (-0.40)) <= 0.15 and fit.valid
    _report(3, ok, f"median sup-error exponent vs ln(N/ln N) = {fit.slope:.4f} "
                   f"(theory -0.40 +- 0.15)")


# --- criterion 5: variance bound ----------------------------------------------


def test_criterion_5_variance_bound():
    spec = make_dgp("theorem1", "zero")
    kernel = make_kernel("epanechnikov", 2)
    rule = BandwidthRule("pointwise-optimal", 1.0, beta=2.0, d_x=1)
    points = []
    scaled = []
    for n, vals in replicate(spec, rule, (50, 100, 200, 400), 500, 0,
                             lambda data, h: psi_hat(data, kernel, h, W0)):
        h = bandwidth(rule, n)
        var = float(np.var(vals, ddof=1))
        points.append((n * h, var))
        scaled.append(var * n * h)
    fit = fit_exponent(points)
    ratio = max(scaled) / min(scaled)
    ok = abs(fit.slope - (-1.0)) <= 0.15 and ratio < 3.0
    _report(5, ok, f"ln Var vs ln(N h^d) slope = {fit.slope:.4f} (-1 +- 0.15); "
                   f"Var*(N h^d) max/min = {ratio:.3f} (< 3)")


# --- criterion 6: Hajek dominance ---------------------------------------------


def test_criterion_6_hajek_dominance():
    spec = make_dgp("theorem1", "sin_additive")
    kernel = make_kernel("epanechnikov", 2)
    rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
    rows = variance_dominance(spec, kernel, rule, [50, 400], 100, W0, seed=3)
    r50, r400 = rows[0].ratio, rows[1].ratio
    ok = r400 < r50 and r400 < 0.2
    _report(6, ok, f"var_t2/var_t1 falls {r50:.4f} -> {r400:.4f} (N=50 -> 400; need < 0.2)")


# --- criterion 7: minimax construction suite -----------------------------------


def test_criterion_7_minimax_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    # (a) Woodbury identity across N = 2..200
    max_gap = 0.0
    min_rhs = math.inf
    for n in range(2, 201):
        sel = build_selection(n)
        lhs, rhs = woodbury_sides(sel, rng.standard_normal(n))
        max_gap = max(max_gap, abs(lhs - rhs))
        min_rhs = min(min_rhs, rhs)
    ok_a = max_gap <= 1e-8 and min_rhs >= -1e-12

    # (b) two-point KL against the closed-form bound
    con = make_two_point(2.0, 1.0, 1.0, 1)
    ok_b = True
    kl_detail = []
    for n in (10, 50, 100):
        rep = kl_two_point(con, n, 300, 21)
        ok_b &= rep.kl_mean <= rep.bound + 3.0 * rep.kl_se
        kl_detail.append(f"N={n}: {rep.kl_mean:.3e}<={rep.bound:.3e}")

    # (c) separation: two-point and all fano pairs
    sep_con = make_two_point(2.0, 1.0, 1.0, 1, centers=(np.array([0.25]), np.array([0.75])))
    grid = np.array([[0.25, 0.75], [0.25, 0.25], [0.75, 0.75]])
    ok_c = separation_check(sep_con, 1, 0, grid, 100).passed
    fano = make_fano(2.0, 1.0, 0.5, 1)
    centers = fano.fano_centers(200)
    fano_grid = np.hstack([centers, centers])
    m_total = len(centers)
    for k in range(0, m_total + 1):
        for l in range(k + 1, m_total + 1):
            ok_c &= separation_check(fano, k, l, fano_grid, 200).passed

    # (d) fano average KL and packing-size arithmetic
    ok_d = True
    for n in (50, 200, 400):
        frep = fano_kl_average(fano, n, 200, 22)
        ok_d &= frep.avg_kl <= frep.alpha_implied * frep.ln_m_n + 1e-15
        ok_d &= frep.avg_kl <= frep.bound + 3.0 * frep.kl_se
        ok_d &= frep.ln_m_n >= frep.ln_m_lower

    # (e) g1N Holder membership at (beta, L), 5% tolerance
    g1 = lambda w: hypothesis_g(con, 1, w, 100)
    hold = holder_membership_check(g1, 2.0, 1.0, 2, n_pairs=1000, seed=5,
                                   tol=0.05, box=(-0.25, 1.25))
    ok_e = hold.passed

    elapsed = time.monotonic() - t0
    ok = ok_a and ok_b and ok_c and ok_d and ok_e and elapsed < 120.0
    _report(7, ok, f"(a) max Woodbury gap {max_gap:.2e}; (b) {'; '.join(kl_detail)}; "
                   f"(c) separation pass; (d) fano KL within bound, ln M_N >= lower; "
                   f"(e) Holder ratio {hold.max_violation_ratio:.3f} <= 1.05; {elapsed:.1f}s")


# --- criterion 8: kernel moment conditions --------------------------------------


def test_criterion_8_kernel_assumptions():
    # moment checks for the normalized estimation kernels; the bump kernel is
    # the lower-bound construction kernel and is deliberately unnormalized
    # (its integral scales with the amplitude), so it is checked through the
    # Holder membership suite instead
    worst_moment = 0.0
    for kernel_id in ("gaussian", "epanechnikov", "boxcar", "gaussian_o4", "gaussian_o6"):
        for dim in (1, 2):
            k = make_kernel(kernel_id, dim)
            zero = kernel_moment(k, np.zeros(dim, dtype=int))
            worst_moment = max(worst_moment, abs(zero - 1.0))
            for total in range(1, k.order):
                for first in range(total + 1):
                    if dim == 1 and first != total:
                        continue
                    idx = np.array([first, total - first]) if dim == 2 else np.array([total])
                    worst_moment = max(worst_moment, abs(kernel_moment(k, idx)))
    _report(8, worst_moment <= 1e-6, f"worst moment deviation {worst_moment:.2e} (<= 1e-6)")


# --- criterion 10: determinism ---------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    # a rate experiment and a dominance table, each run twice
    cfg_body = (
        "dgp.kind = theorem1\ndgp.g = sin_additive\nkernel = epanechnikov\n"
        "bandwidth.mode = pointwise-optimal\nbandwidth.c0 = 0.8\nmode = pointwise\n"
        "w0 = 0.5,0.5\nn_list = 20,40,80,160\nreps = 50\nseed = 5\n"
    )
    outputs = []
    for tag in ("x", "y"):
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(cfg_body + f"out.prefix = {tmp_path / tag}\n")
        assert main(["rates", "--config", str(cfg)]) == 0
        got = {}
        for ext in (".csv", ".fit.json", ".plot.dat"):
            with open(str(tmp_path / tag) + ext, "rb") as fh:
                got[ext] = fh.read()
        outputs.append(got)
    same_rates = all(outputs[0][ext] == outputs[1][ext] for ext in outputs[0])

    dom_out = []
    for tag in ("p", "q"):
        path = str(tmp_path / f"{tag}.csv")
        assert main(["diagnose", "--n", "20,40", "--reps", "50", "--w", "0.5,0.5",
                     "--bandwidth", "uniform-optimal:1.0", "--seed", "2",
                     "--out", path]) == 0
        with open(path, "rb") as fh:
            dom_out.append(fh.read())
    same_dom = dom_out[0] == dom_out[1]

    # and the library-level serialization
    exp = RateExperiment(
        dgp=make_dgp("theorem1", "sin_additive"), kernel_id="epanechnikov",
        rule=BandwidthRule("pointwise-optimal", 0.8, beta=2.0, d_x=1),
        mode="pointwise", n_list=(20, 40, 80, 160), reps=50, seed=5, w0=(0.5, 0.5))
    same_fit = rate_fit_json(run_rate_experiment(exp)) == rate_fit_json(run_rate_experiment(exp))
    ok = same_rates and same_dom and same_fit
    _report(10, ok, f"rates files identical: {same_rates}; dominance CSV identical: {same_dom}; "
                    f"fit JSON identical: {same_fit}")
