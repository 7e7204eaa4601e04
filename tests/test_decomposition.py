import math

import numpy as np
import pytest

from dyadreg.dgp import DyadicDataset, make_dgp, simulate
from dyadreg.decomposition import hoeffding_decompose, variance_dominance
from dyadreg.estimator import BandwidthRule, truncated_psi
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


def test_statistic_equals_truncated_psi():
    data = simulate(make_dgp("theorem1", "sin_additive"), 8, 21)
    k = make_kernel("gaussian", 2)
    tau = 2.0
    parts = hoeffding_decompose(data, k, 0.4, tau, W0)
    assert parts.statistic == pytest.approx(truncated_psi(data, k, 0.4, tau, W0), rel=1e-12)


def test_unit_contributions_center_to_zero():
    data = simulate(make_dgp("theorem1", "sin_additive"), 10, 22)
    k = make_kernel("gaussian", 2)
    parts = hoeffding_decompose(data, k, 0.4, math.inf, W0)
    assert abs(float(np.sum(parts.unit_contributions))) < 1e-12


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


def test_constant_outcomes_flat_kernel_zero_variance_components():
    spec = make_dgp("noiseless", "constant")
    k = make_kernel("boxcar", 2)
    rule = BandwidthRule("fixed", 100.0)
    rows = variance_dominance(spec, k, rule, [12], 50, W0, seed=6)
    assert rows[0].var_t1 == pytest.approx(0.0, abs=1e-24)
    assert rows[0].var_t2 == pytest.approx(0.0, abs=1e-24)


def test_variance_dominance_validates_reps():
    with pytest.raises(ValueError):
        variance_dominance(make_dgp("theorem1", "zero"), make_kernel("gaussian", 2),
                           BandwidthRule("fixed", 0.5), [10], 5, W0, seed=0)
