"""Shared helpers: independent naive reference implementations.

These deliberately loop over ordered pairs and call eval_kernel point by
point, so they share no code path with the factorized production estimators.
naive_weights is the exception: it builds the factorized per-unit weights, but
evaluates the kernel factor at every (unit, grid point) pair, and is the
bitwise reference for estimator._weights.
"""

import numpy as np
import pytest

from dyadreg.dgp import make_dgp
from dyadreg.estimator import BandwidthRule
from dyadreg.kernels import eval_kernel
from dyadreg.rates import RateExperiment, run_rate_experiment


def naive_pair_average(data, kernel, h, w, use_y=True, tau=None):
    n = data.n_units
    w = np.asarray(w, dtype=float)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            wij = np.concatenate([data.x[i], data.x[j]])
            kij = eval_kernel(kernel, (wij - w) / h) * h ** (-kernel.dim)
            if use_y:
                y = data.y[i, j]
                if tau is not None:
                    y = y if abs(y) < tau else 0.0
                total += y * kij
            else:
                total += kij
    return total / (n * (n - 1))


def naive_weights(data, kernel, h, grid):
    """Per-unit weights A, B (N, G), one factor evaluation per unit, grid point
    and coordinate."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    d = data.d_x
    a = np.ones((data.n_units, grid.shape[0]))
    b = np.ones((data.n_units, grid.shape[0]))
    for c in range(d):
        a *= kernel.factor.fn((data.x[:, c, None] - grid[None, :, c]) / h)
        b *= kernel.factor.fn((data.x[:, c, None] - grid[None, :, d + c]) / h)
    return a, b


def naive_psi_hat(data, kernel, h, w):
    return naive_pair_average(data, kernel, h, w, use_y=True)


def naive_f_hat(data, kernel, h, w):
    return naive_pair_average(data, kernel, h, w, use_y=False)


def naive_nw(data, kernel, h, w):
    num = naive_psi_hat(data, kernel, h, w)
    den = naive_f_hat(data, kernel, h, w)
    if den <= 1e-12 * kernel.k_max * h ** (-kernel.dim):
        return np.nan, den
    return num / den, den


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def pointwise_rate_fit():
    """The pointwise rate experiment behind acceptance criteria 2 and 4 and
    the d_W discrimination test; run once per session."""
    exp = RateExperiment(
        dgp=make_dgp("theorem1", "sin_additive"),
        kernel_id="gaussian",
        rule=BandwidthRule("pointwise-optimal", 0.5, beta=2.0, d_x=1),
        mode="pointwise", n_list=(50, 100, 200, 400, 800), reps=200, seed=7,
        w0=(0.5, 0.5), metric="rmse")
    return run_rate_experiment(exp)
