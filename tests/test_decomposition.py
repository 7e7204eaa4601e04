import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from conftest import naive_hoeffding

from dyadreg.dgp import DyadicDataset, _pair_blocks, make_dgp, replication_seed, simulate
from dyadreg.decomposition import _split, hoeffding_decompose, variance_dominance
from dyadreg.estimator import BandwidthRule, bandwidth
from dyadreg.kernels import make_kernel

W0 = np.array([0.5, 0.5])


def test_zero_outcomes_all_parts_zero():
    data = simulate(make_dgp("noiseless", "zero"), 6, 0)
    k = make_kernel("epanechnikov", 2)
    parts = hoeffding_decompose(data, k, 0.5, math.inf, W0)
    assert parts.statistic == 0.0
    assert parts.var1_hat == 0.0
    assert parts.var2_hat == 0.0


def test_unit_additive_outcomes_flat_kernel_have_no_degenerate_part():
    # Y_ij = c_i + c_j with a kernel that is constant over all observed pairs:
    # the projection captures the structure, so the degenerate variance
    # component is dominated by the projection component (the row-mean
    # residual keeps only an O(1/N) additive leakage).
    n = 4
    c = np.array([0.5, -1.0, 2.0, 0.25])
    x = np.linspace(0.4, 0.6, n)[:, None]
    y = c[:, None] + c[None, :]
    data = DyadicDataset(x=x, y=y)
    k = make_kernel("boxcar", 2)
    parts = hoeffding_decompose(data, k, 50.0, math.inf, W0)
    assert parts.var1_hat > 0.0
    assert parts.var2_hat < 0.1 * parts.var1_hat


def test_dominance_ratio_falls_with_n():
    spec = make_dgp("theorem1", "sin_additive")
    k = make_kernel("epanechnikov", 2)
    rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
    rows = variance_dominance(spec, k, rule, [30, 150], 60, W0, seed=3)
    assert rows[1].ratio < rows[0].ratio
    assert rows[0].n_excluded == 0


def test_pure_pair_noise_reverses_dominance():
    # Y_ij = V_ij only: no unit effects, so the projection variance estimate
    # collapses and the degenerate component dominates.
    spec = make_dgp("theorem1", "zero")
    pair_only = make_dgp("noiseless", "zero")

    def pair_graphon(x1, x2, u1, u2, v):
        return v

    from dataclasses import replace

    spec_v = replace(pair_only, graphon=pair_graphon, name="pair_noise")
    k = make_kernel("epanechnikov", 2)
    rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
    rows = variance_dominance(spec_v, k, rule, [30], 80, W0, seed=5)
    assert rows[0].var_t1 < rows[0].var_t2


@pytest.mark.parametrize("kernel_id", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("tau", [math.inf, 1.5])
@pytest.mark.parametrize("n", [3, 5, 9, 17])
def test_split_matches_pair_loop_oracle(kernel_id, tau, n):
    data = simulate(make_dgp("theorem1", "sin_additive"), n, 40 + n)
    k = make_kernel(kernel_id, 2)
    w = np.array([0.3, 0.7])     # a != b: the two orientations of a pair get different weights
    parts = hoeffding_decompose(data, k, 0.5, tau, w)
    statistic, var1, var2 = naive_hoeffding(data, k, 0.5, tau, w)
    assert parts.statistic == pytest.approx(statistic, rel=1e-12)
    assert parts.var1_hat == pytest.approx(var1, rel=1e-12)
    assert parts.var2_hat == pytest.approx(var2, rel=1e-12)


@pytest.mark.parametrize("tau", [math.inf, 1.5])
def test_split_allocates_less_than_one_n_by_n_array(tau):
    n = 600
    data = simulate(make_dgp("theorem1", "sin_additive"), n, 8)
    k = make_kernel("epanechnikov", 2)
    hoeffding_decompose(data, k, 0.3, tau, W0)
    tracemalloc.start()
    try:
        hoeffding_decompose(data, k, 0.3, tau, W0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize("kind", ["theorem1", "sigmoid_graphon"])
def test_streamed_dominance_rows_are_means_of_dataset_splits(kind):
    spec = make_dgp(kind)
    k = make_kernel("epanechnikov", 2)
    rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
    n_list, reps, seed = (20, 45), 50, 4
    rows = variance_dominance(spec, k, rule, n_list, reps, W0, seed)
    for idx, (n, row) in enumerate(zip(n_list, rows)):
        h = bandwidth(rule, n)
        parts = [hoeffding_decompose(simulate(spec, n, replication_seed(seed, idx, rep)), k, h, math.inf, W0)
                 for rep in range(reps)]
        assert row.n_units == n and row.n_excluded == 0
        assert row.var_t1 == pytest.approx(np.mean([p.var1_hat for p in parts]), rel=1e-12)
        assert row.var_t2 == pytest.approx(np.mean([p.var2_hat for p in parts]), rel=1e-12)


def test_streamed_split_allocates_under_a_quarter_of_one_n_by_n_array():
    n = 600
    spec = make_dgp("theorem1", "sin_additive")
    k = make_kernel("epanechnikov", 2)
    _split(*_pair_blocks(spec, n, 8), k, 0.3, math.inf, W0)
    tracemalloc.start()
    try:
        parts = _split(*_pair_blocks(spec, n, 8), k, 0.3, math.inf, W0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * n * n
    whole = hoeffding_decompose(simulate(spec, n, 8), k, 0.3, math.inf, W0)
    for got, want in zip(astuple(parts), astuple(whole)):
        assert got == pytest.approx(want, rel=1e-12)


def test_constant_outcomes_flat_kernel_zero_variance_components():
    spec = make_dgp("noiseless", "constant")
    k = make_kernel("boxcar", 2)
    rule = BandwidthRule("fixed", 100.0)
    # every Z_ij is equal, so the residual sum of squares cancels to rounding
    # error on each dataset (below zero at N = 6 and 20) and must not come out negative
    for n in (6, 12, 20):
        for seed in range(4):
            parts = hoeffding_decompose(simulate(spec, n, seed), k, 100.0, math.inf, W0)
            assert 0.0 <= parts.var2_hat <= 1e-24
    rows = variance_dominance(spec, k, rule, [12], 50, W0, seed=6)
    assert rows[0].var_t1 == pytest.approx(0.0, abs=1e-24)
    assert rows[0].var_t2 == pytest.approx(0.0, abs=1e-24)


def test_variance_dominance_validates_reps():
    with pytest.raises(ValueError):
        variance_dominance(make_dgp("theorem1", "zero"), make_kernel("gaussian", 2),
                           BandwidthRule("fixed", 0.5), [10], 5, W0, seed=0)
