import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import naive_f_hat, naive_nw, naive_pair_average, naive_psi_hat, naive_weights

from dyadreg.decomposition import hoeffding_decompose
from dyadreg.dgp import DyadicDataset, make_dgp, replication_seed, simulate
from dyadreg.errors import TruncationInfeasible
from dyadreg.estimator import (BandwidthRule, TruncationRule, a_n, a_n_star, bandwidth,
                               _weights, f_hat_w, nw_estimate, psi_hat, truncated_psi,
                               truncation_bounds, truncation_threshold)
from dyadreg.kernels import KERNEL_IDS, make_kernel
from dyadreg.rates import product_grid


def test_bandwidth_uniform_optimal():
    rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
    expect = (math.log(100) / 100) ** 0.2
    assert bandwidth(rule, 100) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.5403, abs=5e-5)


def test_bandwidth_fixed_and_pointwise():
    assert bandwidth(BandwidthRule("fixed", 0.3), 1000) == 0.3
    rule = BandwidthRule("pointwise-optimal", 1.0, beta=2.0, d_x=1)
    assert bandwidth(rule, 100) == pytest.approx(100 ** -0.2, rel=1e-12)
    assert 100 ** -0.2 == pytest.approx(0.3981, abs=5e-5)


def test_bandwidth_custom_exponent_and_validation():
    rule = BandwidthRule("custom-exponent", 2.0, exponent=0.5)
    assert bandwidth(rule, 100) == pytest.approx(0.2, rel=1e-12)
    with pytest.raises(ValueError):
        BandwidthRule("custom-exponent", 1.0)
    with pytest.raises(ValueError):
        BandwidthRule("nope", 1.0)
    with pytest.raises(ValueError):
        bandwidth(BandwidthRule("fixed", 1.0), 2)


def test_bandwidth_shrinks_with_growing_window():
    rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
    hs = [bandwidth(rule, n) for n in (10, 100, 1000, 10_000)]
    assert all(h1 > h2 for h1, h2 in zip(hs, hs[1:]))
    assert all(n * bandwidth(rule, n) > 5 for n in (100, 1000, 10_000))


def test_a_n_values():
    h = (math.log(100) / 100) ** 0.2
    expect = math.sqrt(math.log(100) / (100 * h))
    assert a_n(100, h, 1) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.2920, abs=1e-4)
    assert a_n_star(100, h, 1, 2.0) == pytest.approx(expect + h * h, rel=1e-12)
    assert expect + h * h == pytest.approx(0.5839, abs=5e-5)
    n = int(round(math.exp(2)))
    h_unit = 1.0  # N h = N
    assert a_n(n, h_unit, 1) == pytest.approx(math.sqrt(math.log(n) / n), rel=1e-12)


def test_psi_hat_zero_outcomes():
    data = simulate(make_dgp("noiseless", "zero"), 6, 0)
    k = make_kernel("gaussian", 2)
    assert psi_hat(data, k, 0.4, [0.3, 0.7]) == 0.0


def test_psi_hat_n2_hand_formula():
    x = np.array([[0.2], [0.8]])
    y = np.array([[np.nan, 1.5], [-0.7, np.nan]])
    data = DyadicDataset(x=x, y=y)
    k = make_kernel("gaussian", 2)
    h = 0.5
    w = np.array([0.3, 0.6])
    phi = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    k12 = phi((0.2 - 0.3) / h) * phi((0.8 - 0.6) / h) / h**2
    k21 = phi((0.8 - 0.3) / h) * phi((0.2 - 0.6) / h) / h**2
    expect = (1.5 * k12 + (-0.7) * k21) / 2.0
    assert psi_hat(data, k, h, w) == pytest.approx(expect, rel=1e-12)


def test_psi_hat_boxcar_matches_naive():
    data = simulate(make_dgp("theorem1", "sin_additive"), 10, 4)
    k = make_kernel("boxcar", 2)
    w = np.array([0.5, 0.5])
    got = psi_hat(data, k, 0.6, w)
    assert got == pytest.approx(naive_psi_hat(data, k, 0.6, w), rel=1e-12)


def test_f_hat_n3_hand_case():
    # all W_ij inside the boxcar window: density estimate = h^-d_W
    x = np.array([[0.5], [0.52], [0.48]])
    y = np.zeros((3, 3))
    data = DyadicDataset(x=x, y=y)
    k = make_kernel("boxcar", 2)
    h = 1.0
    assert f_hat_w(data, k, h, [0.5, 0.5]) == pytest.approx(1.0, rel=1e-12)
    assert f_hat_w(data, k, 0.5, [0.5, 0.5]) == pytest.approx(0.5 ** -2, rel=1e-12)


def test_f_hat_outside_data_range():
    data = simulate(make_dgp("theorem1", "zero"), 8, 2)
    k = make_kernel("epanechnikov", 2)
    assert f_hat_w(data, k, 0.2, [8.0, 8.0]) == 0.0


def test_f_hat_integrates_to_one():
    data = simulate(make_dgp("theorem1", "zero"), 200, 11)
    k = make_kernel("gaussian", 2)
    h = 0.25
    axis = np.linspace(-1.0, 2.0, 61)
    step = axis[1] - axis[0]
    a, b = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([a.ravel(), b.ravel()], axis=-1)
    res = nw_estimate(data, k, h, grid)
    integral = float(np.sum(res.f_hat)) * step * step
    assert integral == pytest.approx(1.0, rel=0.02)


def test_nw_constant_outcomes_exact():
    spec = make_dgp("noiseless", "constant")
    data = simulate(spec, 9, 5)
    k = make_kernel("gaussian", 2)
    res = nw_estimate(data, k, 0.3, [[0.4, 0.6], [0.2, 0.9]])
    assert np.all(res.defined)
    assert np.all(res.g_hat == pytest.approx(1.0, rel=1e-12))


def test_nw_matches_naive_reference():
    data = simulate(make_dgp("theorem1", "sin_additive"), 10, 6)
    k = make_kernel("gaussian", 2)
    res = nw_estimate(data, k, 0.35, [[0.5, 0.5]])
    g_ref, f_ref = naive_nw(data, k, 0.35, np.array([0.5, 0.5]))
    assert res.g_hat[0] == pytest.approx(g_ref, rel=1e-12)
    assert res.f_hat[0] == pytest.approx(f_ref, rel=1e-12)


def test_nw_empty_window_marked_undefined():
    data = simulate(make_dgp("theorem1", "zero"), 8, 3)
    k = make_kernel("boxcar", 2)
    res = nw_estimate(data, k, 0.05, [[40.0, 40.0], [0.5, 0.5]])
    assert not res.defined[0]
    assert np.isnan(res.g_hat[0])
    assert res.n_undefined >= 1


def test_affine_equivariance():
    data = simulate(make_dgp("theorem1", "sin_additive"), 12, 8)
    k = make_kernel("epanechnikov", 2)
    grid = [[0.4, 0.5], [0.6, 0.3]]
    base = nw_estimate(data, k, 0.5, grid)
    y2 = 2.5 * data.y - 1.25
    shifted = nw_estimate(DyadicDataset(x=data.x, y=y2), k, 0.5, grid)
    mask = base.defined
    assert np.allclose(shifted.g_hat[mask], 2.5 * base.g_hat[mask] - 1.25, rtol=1e-12)


def test_permutation_invariance():
    data = simulate(make_dgp("theorem1", "sin_additive"), 11, 9)
    k = make_kernel("gaussian", 2)
    perm = np.random.default_rng(1).permutation(11)
    data_p = DyadicDataset(x=data.x[perm], y=data.y[np.ix_(perm, perm)])
    w = [0.45, 0.55]
    assert psi_hat(data_p, k, 0.4, w) == pytest.approx(psi_hat(data, k, 0.4, w), rel=1e-12)
    assert f_hat_w(data_p, k, 0.4, w) == pytest.approx(f_hat_w(data, k, 0.4, w), rel=1e-12)


def test_truncated_psi_tau_above_max_equals_psi_hat():
    data = simulate(make_dgp("theorem1", "sin_additive"), 9, 10)
    k = make_kernel("gaussian", 2)
    tau = float(np.nanmax(np.abs(data.y))) * 1.01
    w = [0.5, 0.5]
    assert truncated_psi(data, k, 0.4, tau, w) == psi_hat(data, k, 0.4, w)


def test_truncated_psi_tiny_tau_kills_everything():
    data = simulate(make_dgp("theorem1", "sin_additive"), 9, 10)
    k = make_kernel("gaussian", 2)
    assert truncated_psi(data, k, 0.4, 1e-300, [0.5, 0.5]) == 0.0


def test_truncated_psi_matches_naive():
    data = simulate(make_dgp("theorem1", "sin_additive"), 5, 12)
    k = make_kernel("gaussian", 2)
    tau = float(np.nanmedian(np.abs(data.y)))
    w = np.array([0.5, 0.5])
    got = truncated_psi(data, k, 0.5, tau, w)
    ref = naive_pair_average(data, k, 0.5, w, use_y=True, tau=tau)
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("diagonal", [np.nan, 7.5, np.inf])
def test_diagonal_input_is_ignored(diagonal):
    clean = simulate(make_dgp("theorem1", "sin_additive"), 9, 4)
    y = clean.y.copy()
    np.fill_diagonal(y, diagonal)
    data = DyadicDataset(x=clean.x, y=y)
    assert np.all(np.diag(data.y) == 0.0)
    k = make_kernel("gaussian", 2)
    h, tau, w = 0.5, 1.5, np.array([0.4, 0.6])
    results = []
    for d in (clean, data):
        parts = hoeffding_decompose(d, k, h, tau, w)
        results.append((psi_hat(d, k, h, w), truncated_psi(d, k, h, tau, w),
                        nw_estimate(d, k, h, [w]).g_hat[0], parts.statistic, parts.var1_hat, parts.var2_hat))
    assert results[0] == results[1]
    psi, tpsi, g_hat, statistic = results[1][:4]
    assert psi == pytest.approx(naive_psi_hat(data, k, h, w), rel=1e-12)
    assert tpsi == pytest.approx(naive_pair_average(data, k, h, w, tau=tau), rel=1e-12)
    assert statistic == pytest.approx(tpsi, rel=1e-12)
    assert g_hat == pytest.approx(naive_nw(data, k, h, w)[0], rel=1e-12)


def test_one_point_estimate_does_not_copy_outcomes():
    data = simulate(make_dgp("theorem1", "sin_additive"), 400, 1)
    k = make_kernel("gaussian", 2)
    nw_estimate(data, k, 0.3, [[0.5, 0.5]])
    tracemalloc.start()
    try:
        nw_estimate(data, k, 0.3, [[0.5, 0.5]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < data.y.nbytes / 4


def test_truncation_threshold_s_inf():
    rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
    h = bandwidth(rule, 50)
    tb = truncation_bounds(math.inf, 50, h, 1)
    assert tb.feasible
    tau = truncation_threshold(TruncationRule(s=math.inf), 50, h, 1)
    assert tau == pytest.approx(math.sqrt(tb.upper_deviation * tb.upper_degenerate), rel=1e-12)


def test_truncation_threshold_s4_large_n_feasible_with_margin():
    rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
    h = bandwidth(rule, 10_000)
    tb = truncation_bounds(4.0, 10_000, h, 1)
    # the feasible window at this scale is roughly a factor 2.5 wide
    assert tb.feasible
    assert tb.margin > 2.0
    tau = truncation_threshold(TruncationRule(s=4.0), 10_000, h, 1)
    assert tb.lower < tau < tb.upper


def test_truncation_infeasible_small_n_heavy_tail():
    rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
    h = bandwidth(rule, 50)
    with pytest.raises(TruncationInfeasible, match="lower bound"):
        truncation_threshold(TruncationRule(s=2.1), 50, h, 1)


def test_truncation_rule_requires_s_above_two():
    with pytest.raises(ValueError):
        TruncationRule(s=2.0)


def test_truncation_binding_label_s_inf_names_degenerate_lower_bound():
    h = bandwidth(BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1), 50)
    tb = truncation_bounds(math.inf, 50, h, 1)
    assert tb.lower_bias == tb.lower_residual == 1.0
    assert tb.binding == "1 (lower bounds degenerate, s = inf) vs a_N^(-1)"


def test_truncation_binding_label_s4():
    h = bandwidth(BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1), 10_000)
    tb = truncation_bounds(4.0, 10_000, h, 1)
    assert tb.lower_residual > tb.lower_bias and tb.upper_deviation < tb.upper_degenerate
    assert tb.binding == "min((N^2 phi_N)^(1/s), (a_N h^(2 d_x))^(-1/(s-1))) vs a_N^(-1)"


def test_grid_batch_matches_single_point_evaluations():
    data = simulate(make_dgp("theorem1", "sin_additive"), 15, 13)
    k = make_kernel("gaussian", 2)
    grid = [[0.3, 0.4], [0.7, 0.2], [0.5, 0.9]]
    res = nw_estimate(data, k, 0.45, grid)
    for idx, w in enumerate(grid):
        p = psi_hat(data, k, 0.45, w)
        f = f_hat_w(data, k, 0.45, w)
        assert res.f_hat[idx] == pytest.approx(f, rel=1e-12)
        if res.defined[idx]:
            assert res.g_hat[idx] == pytest.approx(p / f, rel=1e-12)


@pytest.mark.parametrize("d_x", [1, 2])
@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
def test_one_point_estimators_equal_grid_estimate_bitwise(kernel_id, d_x, rng):
    k = make_kernel(kernel_id, 2 * d_x)
    spec = make_dgp("theorem1", "sin_additive", d_x=d_x)
    for n in (3, 7, 60, 200):
        data = simulate(spec, n, 31 * n + d_x)
        tau = float(np.max(np.abs(data.y))) * 1.01
        for _ in range(3):
            w = rng.uniform(0.2, 0.8, 2 * d_x)
            h = float(rng.uniform(0.2, 0.8))
            res = nw_estimate(data, k, h, [w])
            f = f_hat_w(data, k, h, w)
            psi = psi_hat(data, k, h, w)
            assert f == res.f_hat[0]
            if res.defined[0]:
                assert psi / f == res.g_hat[0]
            assert truncated_psi(data, k, h, tau, w) == psi


def test_bias_shrinks_at_order_h_to_beta():
    # noiseless curved regression: |E g_hat - g| at an interior point scales
    # like h^beta for an order-2 kernel (beta = 2)
    from dyadreg.dgp import true_g_on_grid
    from dyadreg.rates import fit_exponent

    spec = make_dgp("noiseless", "sin3_additive")
    k = make_kernel("epanechnikov", 2)
    w0 = np.array([[0.5, 0.5]])
    g_true = true_g_on_grid(spec, w0)[0]
    pts = []
    for h in (0.12, 0.17, 0.24, 0.34):
        vals = []
        for rep in range(150):
            res = nw_estimate(simulate(spec, 300, replication_seed(55, int(h * 1000), rep)), k, h, w0)
            if res.defined[0]:
                vals.append(res.g_hat[0])
        pts.append((h, abs(float(np.mean(vals)) - g_true)))
    fit = fit_exponent(pts)
    assert abs(fit.slope - 2.0) <= 0.3


@pytest.mark.parametrize("d_x", [1, 2])
def test_oracle_equivalence_small_instances(d_x, rng):
    # spot version of acceptance criterion 1
    spec = make_dgp("theorem1", "sin_additive", d_x=d_x)
    k = make_kernel("gaussian", 2 * d_x)
    for trial in range(5):
        n = int(rng.integers(3, 13))
        data = simulate(spec, n, 100 * d_x + trial)
        w = rng.uniform(0.0, 1.0, 2 * d_x)
        h = float(rng.uniform(0.2, 0.8))
        assert psi_hat(data, k, h, w) == pytest.approx(naive_psi_hat(data, k, h, w), rel=1e-12)
        assert f_hat_w(data, k, h, w) == pytest.approx(naive_f_hat(data, k, h, w), rel=1e-12)


def _grids(d_x, rng):
    scattered = rng.uniform(0.0, 1.0, (30, 2 * d_x))
    return {
        "product": product_grid(0.1, 0.9, 5 if d_x == 2 else 9, 2 * d_x),
        "scattered": scattered,
        "one-point": np.full((1, 2 * d_x), 0.45),
        "repeated-rows": np.vstack([scattered[:8], scattered[:8], scattered[2:5]]),
    }


@pytest.mark.parametrize("d_x", [1, 2])
@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
def test_weights_equal_point_by_point_weights_bitwise(kernel_id, d_x, rng, monkeypatch):
    kernel = make_kernel(kernel_id, 2 * d_x)
    data = simulate(make_dgp("theorem1", "sin_additive", d_x=d_x), 60, 17)
    h = 0.35
    for name, grid in _grids(d_x, rng).items():
        a, b = _weights(data, kernel, h, grid)
        a_ref, b_ref = naive_weights(data, kernel, h, grid)
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref), name
        assert all(m.flags.c_contiguous for m in (a, b, a_ref, b_ref)), name
        res = nw_estimate(data, kernel, h, grid)
        with monkeypatch.context() as m:
            m.setattr("dyadreg.estimator._weights", naive_weights)
            ref = nw_estimate(data, kernel, h, grid)
        for field in ("g_hat", "f_hat", "defined"):
            assert getattr(res, field).tobytes() == getattr(ref, field).tobytes(), (name, field)


def test_product_grid_with_repeated_halves_matches_oracle():
    data = simulate(make_dgp("theorem1", "sin_additive", d_x=2), 11, 23)
    k = make_kernel("gaussian", 4)
    grid = product_grid(0.2, 0.8, 3, 4)
    res = nw_estimate(data, k, 0.4, grid)
    for idx, w in enumerate(grid):
        g_ref, f_ref = naive_nw(data, k, 0.4, w)
        assert res.f_hat[idx] == pytest.approx(f_ref, rel=1e-12)
        assert res.defined[idx]
        assert res.g_hat[idx] == pytest.approx(g_ref, rel=1e-12)


def test_kernel_factor_evaluated_once_per_distinct_coordinate():
    d_x, n = 2, 40
    kernel = make_kernel("epanechnikov", 2 * d_x)
    evaluated = []

    def counted(t):
        evaluated.append(np.size(t))
        return kernel.factor.fn(t)

    counting = replace(kernel, factor=replace(kernel.factor, fn=counted))
    data = simulate(make_dgp("theorem1", "sin_additive", d_x=d_x), n, 5)
    grid = product_grid(0.2, 0.8, 7, 2 * d_x)
    res = nw_estimate(data, counting, 0.5, grid)
    assert sum(evaluated) <= 2 * d_x * n * 7
    assert np.array_equal(res.f_hat, nw_estimate(data, kernel, 0.5, grid).f_hat)
