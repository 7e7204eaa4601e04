import functools
import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

from conftest import naive_hoeffding

from dyadreg.dgp import (REGRESSION_FUNCS, Additive, DyadicDataset, _additive_units, _pair_blocks, make_dgp,
                         replication_seed, simulate, uniform_law)
from dyadreg.decomposition import (_additive_sums, _block_sums, _split, _streamed_sums, hoeffding_decompose,
                                   variance_dominance)
from dyadreg.estimator import BandwidthRule, bandwidth, kernel_scale
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
    assert parts.statistic == pytest.approx(statistic, rel=1e-12, abs=0)
    assert parts.var1_hat == pytest.approx(var1, rel=1e-12, abs=0)
    assert parts.var2_hat == pytest.approx(var2, rel=1e-12, abs=0)


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


@pytest.mark.parametrize("kind", ["theorem1", "sigmoid_graphon", "product"])
def test_streamed_dominance_rows_are_means_of_dataset_splits(kind):
    """Additive theorem1 replications split in closed form beside the V walk;
    product and the graphon kinds split dgp._pair_blocks' outcome blocks."""
    spec = make_dgp("theorem1", "product") if kind == "product" else make_dgp(kind)
    assert _streamed_sums(spec, 20, 1)[1].func is (_additive_sums if kind == "theorem1" else _block_sums)
    k = make_kernel("epanechnikov", 2)
    rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
    n_list, reps, seed = (20, 45), 50, 4
    rows = variance_dominance(spec, k, rule, n_list, reps, W0, seed)
    for idx, (n, row) in enumerate(zip(n_list, rows)):
        h = bandwidth(rule, n)
        parts = [hoeffding_decompose(simulate(spec, n, replication_seed(seed, idx, rep)), k, h, math.inf, W0)
                 for rep in range(reps)]
        assert row.n_units == n and row.n_excluded == 0
        assert row.var_t1 == pytest.approx(np.mean([p.var1_hat for p in parts]), rel=1e-12, abs=0)
        assert row.var_t2 == pytest.approx(np.mean([p.var2_hat for p in parts]), rel=1e-12, abs=0)


def test_streamed_split_allocates_under_a_quarter_of_one_n_by_n_array():
    n = 600
    spec = make_dgp("theorem1", "sin_additive")
    k = make_kernel("epanechnikov", 2)

    def split():
        x, blocks = _pair_blocks(spec, n, 8)
        blocks = ((r0, r0, up, low) for r0, _, up, low in blocks)
        return _split(x, functools.partial(_block_sums, blocks, math.inf), k, 0.3, W0)

    split()
    tracemalloc.start()
    try:
        parts = split()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * n * n
    whole = hoeffding_decompose(simulate(spec, n, 8), k, 0.3, math.inf, W0)
    for got, want in zip(astuple(parts), astuple(whole)):
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_additive_split_allocates_under_a_quarter_of_one_n_by_n_array():
    n = 600
    spec = make_dgp("theorem1", "sin_additive")
    k = make_kernel("epanechnikov", 2)
    _split(*_streamed_sums(spec, n, 8), k, 0.3, W0)
    tracemalloc.start()
    try:
        parts = _split(*_streamed_sums(spec, n, 8), k, 0.3, W0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * n * n
    whole = hoeffding_decompose(simulate(spec, n, 8), k, 0.3, math.inf, W0)
    for got, want in zip(astuple(parts), astuple(whole)):
        assert got == pytest.approx(want, rel=1e-12, abs=0)


# --- the closed-form split of additive DGPs: decomposition._additive_sums ---

_ADDITIVE = [name for name, g in REGRESSION_FUNCS.items() if isinstance(g, Additive)]


def _additive_split(spec, n, seed, kernel, h, w):
    x, sums = _streamed_sums(spec, n, seed)
    assert sums.func is _additive_sums
    return _split(x, sums, kernel, h, w)


def _assert_split_near(got, want, spec, n, seed, kernel, h):
    """got is want to rel 1e-12. At N = 2 the one pair is its own row means,
    so both variance parts are 0 but for rounding: there each must sit below
    1e-12 of the square of s (max |Y| + 2 max |c|), which bounds every term
    of Z and of its closed-form parts."""
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0), (spec.name, n, seed)
    if n > 2:
        assert got[1:] == pytest.approx(want[1:], rel=1e-12, abs=0), (spec.name, n, seed)
        return
    c = _additive_units(spec, n, seed)[1]
    y_max = np.abs(simulate(spec, n, seed).y).max()
    bound = 1e-12 * (kernel_scale(h, kernel.dim) * (y_max + 2 * np.abs(c).max())) ** 2
    assert max(*got[1:], *want[1:]) <= bound, (spec.name, seed)


@pytest.mark.parametrize("kernel_id", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("n", [2, 3, 33])
def test_additive_split_matches_pair_loop_oracle(kernel_id, n):
    k = make_kernel(kernel_id, 2)
    w = np.array([0.3, 0.7])
    for g_name in ("sin_additive", "linear_additive"):
        spec = make_dgp("theorem1", g_name, law="truncnorm")
        for seed in (40 + n, 41 + n):
            got = _additive_split(spec, n, seed, k, 0.5, w)
            want = naive_hoeffding(simulate(spec, n, seed), k, 0.5, math.inf, w)
            _assert_split_near(astuple(got), want, spec, n, seed, k, 0.5)


@pytest.mark.parametrize("n", [2, 3])
def test_additive_split_matches_pair_loop_oracle_where_one_unit_dominates(n):
    """Far from the data one unit's weight outweighs the others', so its row
    of each sum over j != i cancels unless taken directly: with sum - v_i
    there, var1_hat at N = 3 missed the pair loop by 1e-3 relative."""
    spec, k = make_dgp("theorem1", "zero", d_x=2, law="truncnorm"), make_kernel("gaussian", 4)
    for w in ([-1.0, -1.0, -1.0, -1.0], [-0.5, 0.0, -0.5, 0.0]):
        got = _additive_split(spec, n, 11, k, 0.3, np.array(w))
        want = naive_hoeffding(simulate(spec, n, 11), k, 0.3, math.inf, np.array(w))
        _assert_split_near(astuple(got), want, spec, n, 11, k, 0.3)


@pytest.mark.parametrize("kernel_id", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("law", ["uniform", "truncnorm"])
@pytest.mark.parametrize("d_x", [1, 2])
def test_additive_split_is_simulates_split(d_x, law, kernel_id):
    """At the V walk's block edges, for every shipped additive g."""
    k = make_kernel(kernel_id, 2 * d_x)
    w = np.array([0.3, 0.7] if d_x == 1 else [0.3, 0.6, 0.7, 0.4])
    for g_name in _ADDITIVE:
        spec = make_dgp("theorem1", g_name, d_x=d_x, law=law)
        for n in (2, 3, 32, 33, 65):
            got = _additive_split(spec, n, 11, k, 0.5, w)
            want = hoeffding_decompose(simulate(spec, n, 11), k, 0.5, math.inf, w)
            _assert_split_near(astuple(got), astuple(want), spec, n, 11, k, 0.5)


def test_streamed_dominance_refuses_what_simulate_refuses():
    """A NaN unit part and a NaN regressor law make variance_dominance raise
    the ValueError that simulate raises, message and all."""
    k, rule = make_kernel("gaussian", 2), BandwidthRule("fixed", 0.3)
    nan_law = replace(uniform_law(1), sample=lambda rng, n: np.full((n, 1), np.nan))
    specs = (replace(make_dgp("theorem1"), g=Additive(lambda x: np.where(x[..., 0] > 0.5, np.nan, 0.5))),
             replace(make_dgp("theorem1", "sin_additive"), regressor_law=nan_law),
             replace(make_dgp("theorem1", "zero"), regressor_law=nan_law))  # the zero g leaves c finite
    messages = set()
    for spec in specs:
        with pytest.raises(ValueError) as simulated:
            simulate(spec, 70, replication_seed(1, 0, 0))
        with pytest.raises(ValueError, match=f"^{simulated.value}$"):
            variance_dominance(spec, k, rule, [70], 50, W0, seed=1)
        messages.add(str(simulated.value))
    assert messages == {"off-diagonal outcomes must be finite", "regressors must be finite"}


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
