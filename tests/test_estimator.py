import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import f_hat_w, naive_f_hat, naive_nw, naive_pair_average, naive_psi_hat, naive_weights, psi_hat

from dyadreg import decomposition, estimator
from dyadreg.decomposition import hoeffding_decompose
from dyadreg.dgp import DyadicDataset, _off_diagonal_sums, make_dgp, replication_seed, simulate
from dyadreg.estimator import BandwidthRule, bandwidth, _weights, kernel_scale, nw_estimate
from dyadreg.kernels import KERNEL_IDS, make_kernel
from dyadreg.rates import product_grid


def test_bandwidth_uniform_optimal():
    rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
    expect = (math.log(100) / 100) ** 0.2
    assert bandwidth(rule, 100) == pytest.approx(expect, rel=1e-12, abs=0)
    assert expect == pytest.approx(0.5403, abs=5e-5)


def test_bandwidth_fixed_and_pointwise():
    assert bandwidth(BandwidthRule("fixed", 0.3), 1000) == 0.3
    rule = BandwidthRule("pointwise-optimal", 1.0, beta=2.0, d_x=1)
    assert bandwidth(rule, 100) == pytest.approx(100 ** -0.2, rel=1e-12, abs=0)
    assert 100 ** -0.2 == pytest.approx(0.3981, abs=5e-5)


def test_bandwidth_custom_exponent_and_validation():
    rule = BandwidthRule("custom-exponent", 2.0, exponent=0.5)
    assert bandwidth(rule, 100) == pytest.approx(0.2, rel=1e-12, abs=0)
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
    assert psi_hat(data, k, h, w) == pytest.approx(expect, rel=1e-12, abs=0)


def test_psi_hat_boxcar_matches_naive():
    data = simulate(make_dgp("theorem1", "sin_additive"), 10, 4)
    k = make_kernel("boxcar", 2)
    w = np.array([0.5, 0.5])
    got = psi_hat(data, k, 0.6, w)
    assert got == pytest.approx(naive_psi_hat(data, k, 0.6, w), rel=1e-12, abs=0)


def test_f_hat_n3_hand_case():
    # all W_ij inside the boxcar window: density estimate = h^-d_W
    x = np.array([[0.5], [0.52], [0.48]])
    y = np.zeros((3, 3))
    data = DyadicDataset(x=x, y=y)
    k = make_kernel("boxcar", 2)
    h = 1.0
    assert f_hat_w(data, k, h, [0.5, 0.5]) == pytest.approx(1.0, rel=1e-12, abs=0)
    assert f_hat_w(data, k, 0.5, [0.5, 0.5]) == pytest.approx(0.5 ** -2, rel=1e-12, abs=0)


def test_density_sum_does_not_cancel_where_one_unit_dominates():
    """At N = 2 each unit's diagonal product a_i b_i outweighs the one pair,
    so f summed over all products less the diagonal ones missed the pair loop
    by 2.6e-9 relative at (-1, -1, -1, -1) and 5.1e-12 at (-0.5, 0, -0.5, 0)."""
    data = simulate(make_dgp("theorem1", "zero", d_x=2, law="truncnorm"), 2, 11)
    k = make_kernel("gaussian", 4)
    for w in ([-1.0, -1.0, -1.0, -1.0], [-0.5, 0.0, -0.5, 0.0]):
        res = nw_estimate(data, k, 0.3, [w])
        g_ref, f_ref = naive_nw(data, k, 0.3, w)
        assert res.f_hat[0] == pytest.approx(f_ref, rel=1e-12, abs=0), w
        assert res.g_hat[0] == pytest.approx(g_ref, rel=1e-12, abs=0, nan_ok=True), w


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
    assert integral == pytest.approx(1.0, rel=0.02, abs=0)


def test_nw_constant_outcomes_exact():
    spec = make_dgp("noiseless", "constant")
    data = simulate(spec, 9, 5)
    k = make_kernel("gaussian", 2)
    res = nw_estimate(data, k, 0.3, [[0.4, 0.6], [0.2, 0.9]])
    assert np.all(res.defined)
    assert np.all(res.g_hat == pytest.approx(1.0, rel=1e-12, abs=0))


def test_nw_matches_naive_reference():
    data = simulate(make_dgp("theorem1", "sin_additive"), 10, 6)
    k = make_kernel("gaussian", 2)
    res = nw_estimate(data, k, 0.35, [[0.5, 0.5]])
    g_ref, f_ref = naive_nw(data, k, 0.35, np.array([0.5, 0.5]))
    assert res.g_hat[0] == pytest.approx(g_ref, rel=1e-12, abs=0)
    assert res.f_hat[0] == pytest.approx(f_ref, rel=1e-12, abs=0)


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
    assert psi_hat(data_p, k, 0.4, w) == pytest.approx(psi_hat(data, k, 0.4, w), rel=1e-12, abs=0)
    assert f_hat_w(data_p, k, 0.4, w) == pytest.approx(f_hat_w(data, k, 0.4, w), rel=1e-12, abs=0)


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
        results.append((psi_hat(d, k, h, w), nw_estimate(d, k, h, [w]).g_hat[0],
                        parts.statistic, parts.var1_hat, parts.var2_hat))
    assert results[0] == results[1]
    psi, g_hat, statistic = results[1][:3]
    assert psi == pytest.approx(naive_psi_hat(data, k, h, w), rel=1e-12, abs=0)
    assert statistic == pytest.approx(naive_pair_average(data, k, h, w, tau=tau), rel=1e-12, abs=0)
    assert g_hat == pytest.approx(naive_nw(data, k, h, w)[0], rel=1e-12, abs=0)


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


def test_grid_batch_matches_single_point_evaluations():
    data = simulate(make_dgp("theorem1", "sin_additive"), 15, 13)
    k = make_kernel("gaussian", 2)
    grid = [[0.3, 0.4], [0.7, 0.2], [0.5, 0.9]]
    res = nw_estimate(data, k, 0.45, grid)
    for idx, w in enumerate(grid):
        p = psi_hat(data, k, 0.45, w)
        f = f_hat_w(data, k, 0.45, w)
        assert res.f_hat[idx] == pytest.approx(f, rel=1e-12, abs=0)
        if res.defined[idx]:
            assert res.g_hat[idx] == pytest.approx(p / f, rel=1e-12, abs=0)


@pytest.mark.parametrize("d_x", [1, 2])
@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
def test_one_point_estimators_equal_grid_estimate_bitwise(kernel_id, d_x, rng):
    k = make_kernel(kernel_id, 2 * d_x)
    spec = make_dgp("theorem1", "sin_additive", d_x=d_x)
    for n in (3, 7, 60, 200):
        data = simulate(spec, n, 31 * n + d_x)
        for _ in range(3):
            w = rng.uniform(0.2, 0.8, 2 * d_x)
            h = float(rng.uniform(0.2, 0.8))
            res = nw_estimate(data, k, h, [w])
            f = f_hat_w(data, k, h, w)
            psi = psi_hat(data, k, h, w)
            assert f == res.f_hat[0]
            if res.defined[0]:
                assert psi / f == res.g_hat[0]


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
        assert psi_hat(data, k, h, w) == pytest.approx(naive_psi_hat(data, k, h, w), rel=1e-12, abs=0)
        assert f_hat_w(data, k, h, w) == pytest.approx(naive_f_hat(data, k, h, w), rel=1e-12, abs=0)


def _grids(d_x, rng):
    scattered = rng.uniform(0.0, 1.0, (30, 2 * d_x))
    return {
        "product": product_grid(0.1, 0.9, 5 if d_x == 2 else 9, 2 * d_x),
        "scattered": scattered,
        "one-point": np.full((1, 2 * d_x), 0.45),
        "repeated-rows": np.vstack([scattered[:8], scattered[:8], scattered[2:5]]),
    }


def _point_by_point_estimate(data, kernel, h, grid):
    """(g_hat, f_hat, defined) contracted with one column of naive weights per
    grid point: the arithmetic of the per-point path of nw_estimate."""
    a, b = naive_weights(data, kernel, h, grid)
    n = data.n_units
    scale = kernel_scale(h, kernel.dim) / (n * (n - 1))
    psi = np.einsum("ng,ng->g", a, data.y @ b) * scale
    f = np.einsum("ng,ng->g", a, _off_diagonal_sums(b)) * scale
    defined = f > 1e-12 * kernel.k_max * kernel_scale(h, kernel.dim)
    return np.where(defined, psi / np.where(defined, f, 1.0), np.nan), f, defined


@pytest.mark.parametrize("d_x", [1, 2])
@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
def test_weights_equal_point_by_point_weights_bitwise(kernel_id, d_x, rng):
    kernel = make_kernel(kernel_id, 2 * d_x)
    data = simulate(make_dgp("theorem1", "sin_additive", d_x=d_x), 60, 17)
    h = 0.35
    for name, grid in _grids(d_x, rng).items():
        a_ref, b_ref = naive_weights(data, kernel, h, grid)
        for half, ref in ((grid[:, :d_x], a_ref), (grid[:, d_x:], b_ref)):
            weights = _weights(data.x, kernel, h, half)
            assert np.array_equal(weights, ref) and weights.flags.c_contiguous, name
        res = nw_estimate(data, kernel, h, grid)
        g_ref, f_ref, defined_ref = _point_by_point_estimate(data, kernel, h, grid)
        assert np.array_equal(res.defined, defined_ref), name
        if name in ("scattered", "one-point"):
            # one column pair per point: the same sums as point-by-point weights
            assert res.g_hat.tobytes() == g_ref.tobytes(), name
            assert res.f_hat.tobytes() == f_ref.tobytes(), name
        else:
            # distinct halves: a G1 x G2 product, summed in another order
            np.testing.assert_allclose(res.g_hat, g_ref, rtol=1e-12, err_msg=name)
            np.testing.assert_allclose(res.f_hat, f_ref, rtol=1e-12, err_msg=name)
            idx = int(rng.integers(len(grid)))
            g_naive, f_naive = naive_nw(data, kernel, h, grid[idx])
            assert res.f_hat[idx] == pytest.approx(f_naive, rel=1e-12, abs=0), name
            assert res.g_hat[idx] == pytest.approx(g_naive, rel=1e-12, abs=0, nan_ok=True), name


def _product_grids(rng):
    d1 = product_grid(0.1, 0.9, 9, 2)
    return {
        "shuffled": (1, d1[rng.permutation(len(d1))]),
        "five-removed": (1, np.delete(d1, rng.choice(len(d1), 5, replace=False), axis=0)),
        "d_x=3": (3, product_grid(0.2, 0.8, 3, 6)),
    }


@pytest.mark.parametrize("name", ["shuffled", "five-removed", "d_x=3"])
def test_distinct_half_contraction_matches_pair_loop_oracle(name, rng):
    d_x, grid = _product_grids(rng)[name]
    n = 7 if d_x == 1 else 5
    data = simulate(make_dgp("theorem1", "sin_additive", d_x=d_x), n, 29)
    k = make_kernel("gaussian", 2 * d_x)
    res = nw_estimate(data, k, 0.5, grid)
    assert np.array_equal(res.grid, grid)
    for idx, w in enumerate(grid):
        g_ref, f_ref = naive_nw(data, k, 0.5, w)
        assert res.f_hat[idx] == pytest.approx(f_ref, rel=1e-12, abs=0), idx
        assert res.defined[idx]
        assert res.g_hat[idx] == pytest.approx(g_ref, rel=1e-12, abs=0), idx


def _weights_half_by_half(x, kernel, h, first, second, codes=(None, None)):
    return _weights(x, kernel, h, first, codes[0]), _weights(x, kernel, h, second, codes[1])


@pytest.mark.parametrize("d_x", [1, 2])
def test_equal_halves_share_weights_bit_for_bit(monkeypatch, d_x, rng):
    kernel, h = make_kernel("epanechnikov", 2 * d_x), 0.4
    data = simulate(make_dgp("theorem1", "sin_additive", d_x=d_x), 40, 3)
    points = rng.uniform(0.0, 1.0, (30, d_x))
    grids = [product_grid(0.1, 0.9, 5, 2 * d_x), np.full((1, 2 * d_x), 0.45), np.hstack([points, points])]
    w = np.full(2 * d_x, 0.45)
    shared, half_weights = [], estimator._half_weights

    def recorded(*args):
        a, b = half_weights(*args)
        shared.append(a is b)
        return a, b

    monkeypatch.setattr(estimator, "_half_weights", recorded)
    monkeypatch.setattr(decomposition, "_half_weights", recorded)
    results = [nw_estimate(data, kernel, h, grid) for grid in grids]
    parts = hoeffding_decompose(data, kernel, h, math.inf, w)
    assert shared == [True] * 4
    monkeypatch.setattr(estimator, "_half_weights", _weights_half_by_half)
    monkeypatch.setattr(decomposition, "_half_weights", _weights_half_by_half)
    for res, grid in zip(results, grids):
        ref = nw_estimate(data, kernel, h, grid)
        assert res.f_hat.tobytes() == ref.f_hat.tobytes() and res.g_hat.tobytes() == ref.g_hat.tobytes()
    assert parts == hoeffding_decompose(data, kernel, h, math.inf, w)


def test_scattered_grid_allocates_less_than_one_grid_by_grid_array(rng):
    data = simulate(make_dgp("theorem1", "sin_additive"), 30, 8)
    k = make_kernel("epanechnikov", 2)
    grid = rng.uniform(0.0, 1.0, (1500, 2))
    nw_estimate(data, k, 0.4, grid)
    tracemalloc.start()
    try:
        nw_estimate(data, k, 0.4, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(grid) ** 2 * 8


@pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -0.3])
def test_bandwidth_must_be_finite_and_positive(h):
    data = simulate(make_dgp("theorem1", "sin_additive"), 12, 2)
    k = make_kernel("gaussian", 2)
    w = [0.4, 0.6]
    with pytest.raises(ValueError, match="bandwidth"):
        nw_estimate(data, k, h, product_grid(0.2, 0.8, 4, 2))
    with pytest.raises(ValueError, match="bandwidth"):
        psi_hat(data, k, h, w)
    with pytest.raises(ValueError, match="bandwidth"):
        hoeffding_decompose(data, k, h, math.inf, w)


def test_product_grid_with_repeated_halves_matches_oracle():
    data = simulate(make_dgp("theorem1", "sin_additive", d_x=2), 11, 23)
    k = make_kernel("gaussian", 4)
    grid = product_grid(0.2, 0.8, 3, 4)
    res = nw_estimate(data, k, 0.4, grid)
    for idx, w in enumerate(grid):
        g_ref, f_ref = naive_nw(data, k, 0.4, w)
        assert res.f_hat[idx] == pytest.approx(f_ref, rel=1e-12, abs=0)
        assert res.defined[idx]
        assert res.g_hat[idx] == pytest.approx(g_ref, rel=1e-12, abs=0)


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


def test_a_grid_mutated_in_place_is_planned_again():
    data = simulate(make_dgp("theorem1", "sin_additive", d_x=2), 30, 12)
    k = make_kernel("epanechnikov", 4)
    grid = product_grid(0.2, 0.8, 5, 4)
    before = nw_estimate(data, k, 0.5, grid)
    grid += 0.05
    after = nw_estimate(data, k, 0.5, grid)
    estimator._planned_halves.cache_clear()
    fresh = nw_estimate(data, k, 0.5, grid.copy())
    for field in ("g_hat", "f_hat", "defined"):
        assert getattr(after, field).tobytes() == getattr(fresh, field).tobytes()
    assert not np.array_equal(after.f_hat, before.f_hat)


def test_grid_plan_is_read_only_and_skipped_for_one_point():
    data = simulate(make_dgp("theorem1", "sin_additive"), 20, 3)
    k = make_kernel("gaussian", 2)
    grid = product_grid(0.2, 0.8, 6, 2)
    nw_estimate(data, k, 0.4, grid)
    for rows, index, codes in estimator._grid_halves(grid, 1):
        for array in (rows, index, *(a for pair in codes for a in pair)):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
    info = estimator._planned_halves.cache_info()
    nw_estimate(data, k, 0.4, [0.3, 0.6])
    assert estimator._planned_halves.cache_info() == info
