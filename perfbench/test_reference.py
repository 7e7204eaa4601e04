"""The benchmark's reference against the naive pair-loop oracle of the test suite.

Run with `PYTHONPATH=src python -m pytest perfbench` from the repository root.
"""

import importlib.util
import math
import os

import numpy as np
import pytest

import reference
from dyadreg.dgp import make_dgp, simulate
from dyadreg.estimator import BandwidthRule, bandwidth
from dyadreg.kernels import make_kernel

_spec = importlib.util.spec_from_file_location(
    "pair_loop_oracle", os.path.join(os.path.dirname(__file__), os.pardir, "tests", "conftest.py"))
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


@pytest.mark.parametrize("kernel_id", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("d_x", [1, 2])
def test_pair_sums_match_pair_loop_oracle(kernel_id, d_x):
    rng = np.random.default_rng(41 + d_x)
    kernel = make_kernel(kernel_id, 2 * d_x)
    for trial in range(6):
        n = int(rng.integers(3, 12))
        data = simulate(make_dgp("theorem1", "sin_additive", d_x=d_x), n, 500 + trial)
        h = float(rng.uniform(0.3, 0.9))
        grid = rng.uniform(0.0, 1.0, (3, 2 * d_x))
        g, f, defined = reference.nw(data.x, data.y, kernel_id, h, grid)
        psi, f2 = reference.pair_sums(data.x, data.y, kernel_id, h, grid)
        for p in range(len(grid)):
            assert psi[p] == pytest.approx(oracle.naive_psi_hat(data, kernel, h, grid[p]), rel=1e-12, abs=1e-300)
            assert f[p] == pytest.approx(oracle.naive_f_hat(data, kernel, h, grid[p]), rel=1e-12, abs=1e-300)
            g_ref, _ = oracle.naive_nw(data, kernel, h, grid[p])
            assert defined[p] == (not math.isnan(g_ref))
            if defined[p]:
                assert g[p] == pytest.approx(g_ref, rel=1e-12)
        assert np.array_equal(f, f2)


def test_undefined_where_no_pair_has_weight():
    data = simulate(make_dgp("theorem1", "sin_additive"), 8, 3)
    g, f, defined = reference.nw(data.x, data.y, "epanechnikov", 0.1, [[5.0, 5.0]])
    assert f[0] == 0.0 and not defined[0] and math.isnan(g[0])
    assert math.isnan(oracle.naive_nw(data, make_kernel("epanechnikov", 2), 0.1, [5.0, 5.0])[0])


def test_hoeffding_statistic_is_psi_hat():
    data = simulate(make_dgp("theorem1", "sin_additive"), 9, 4)
    kernel = make_kernel("epanechnikov", 2)
    stat = reference.hoeffding_statistic(data.x, data.y, "epanechnikov", 0.6, [0.5, 0.5])
    assert stat == pytest.approx(oracle.naive_psi_hat(data, kernel, 0.6, [0.5, 0.5]), rel=1e-12)


@pytest.mark.parametrize("n", [50, 400])
def test_bandwidth_formulas(n):
    for mode, fn in (("pointwise-optimal", reference.pointwise_bandwidth),
                     ("uniform-optimal", reference.uniform_bandwidth)):
        for d_x in (1, 2):
            rule = BandwidthRule(mode, 0.8, beta=2.0, d_x=d_x)
            assert fn(0.8, 2.0, d_x, n) == pytest.approx(bandwidth(rule, n), rel=1e-14)
