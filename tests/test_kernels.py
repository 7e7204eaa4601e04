import math

import numpy as np
import pytest
from scipy.integrate import quad

from dyadreg.errors import QuadratureFailure
from dyadreg.kernels import (KERNEL_IDS, KernelSpec, QuadratureConfig, _Factor, bump_eta,
                             eval_kernel, kernel_moment, make_higher_order_kernel, make_kernel)

GAUSS_AT_0 = 1.0 / math.sqrt(2.0 * math.pi)


def test_eval_gaussian_at_zero():
    k = make_kernel("gaussian", 1)
    assert eval_kernel(k, [0.0]) == pytest.approx(GAUSS_AT_0, abs=1e-12)


def test_eval_boxcar_outside_support():
    k = make_kernel("boxcar", 2)
    assert eval_kernel(k, [0.6, 0.0]) == 0.0
    assert eval_kernel(k, [0.4, 0.4]) == 1.0


def test_eval_bump_explicit_amplitude():
    k = make_kernel("bump", 1, bump_a=0.1)
    assert eval_kernel(k, [0.0]) == pytest.approx(0.1 * math.exp(-1.0), rel=1e-12, abs=0)


def test_eval_dimension_mismatch_rejected():
    k = make_kernel("gaussian", 2)
    with pytest.raises(ValueError):
        eval_kernel(k, [0.0])


def test_eval_batch_matches_single_points(rng):
    k = make_kernel("epanechnikov", 2)
    pts = rng.uniform(-1.2, 1.2, size=(3, 4, 2))
    vals = eval_kernel(k, pts)
    assert vals.shape == (3, 4)
    assert all(vals[i, j] == eval_kernel(k, pts[i, j]) for i in range(3) for j in range(4))
    with pytest.raises(ValueError):
        eval_kernel(k, np.zeros((5, 1)))


def test_bump_eta_values():
    assert bump_eta(0.0) == pytest.approx(math.exp(-1.0), rel=1e-12, abs=0)
    assert bump_eta(1.0) == 0.0
    assert bump_eta(-1.0) == 0.0
    assert bump_eta(0.5) == pytest.approx(math.exp(-4.0 / 3.0), rel=1e-12, abs=0)
    assert bump_eta(7.3) == 0.0  # total function
    # vanishes smoothly at the boundary
    assert bump_eta(0.999999) < 1e-200


def test_kernel_moment_examples():
    k = make_kernel("gaussian", 1)
    assert kernel_moment(k, np.array([0])) == pytest.approx(1.0, abs=1e-8)
    assert kernel_moment(k, np.array([1])) == pytest.approx(0.0, abs=1e-8)
    # quadrature oracle for the second moment
    oracle, _ = quad(lambda t: t * t * math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), -16, 16)
    assert kernel_moment(k, np.array([2])) == pytest.approx(oracle, abs=1e-6)
    assert oracle == pytest.approx(1.0, abs=1e-10)


def test_kernel_moment_validates_index():
    k = make_kernel("gaussian", 2)
    with pytest.raises(ValueError):
        kernel_moment(k, np.array([1]))
    with pytest.raises(ValueError):
        kernel_moment(k, np.array([-1, 0]))


def test_higher_order_gaussian_o2_is_base():
    base = make_kernel("gaussian", 1)
    assert make_higher_order_kernel(base, 2) is base


def test_higher_order_gaussian_o4_formula():
    k4 = make_kernel("gaussian_o4", 1)
    # standard fourth-order factor (3 - u^2)/2 * phi(u)
    for u in (0.0, 0.7, -1.3, 2.5):
        expect = 0.5 * (3.0 - u * u) * math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
        assert eval_kernel(k4, [u]) == pytest.approx(expect, rel=1e-12, abs=0)
    assert kernel_moment(k4, np.array([2])) == pytest.approx(0.0, abs=1e-6)


def test_higher_order_product_mixed_moment():
    k = make_kernel("gaussian_o4", 2)
    assert kernel_moment(k, np.array([2, 0])) == pytest.approx(0.0, abs=1e-6)
    assert kernel_moment(k, np.array([0, 0])) == pytest.approx(1.0, abs=1e-6)


def test_higher_order_unsupported_rejected():
    base = make_kernel("gaussian", 1)
    with pytest.raises(ValueError):
        make_higher_order_kernel(base, 8)
    with pytest.raises(ValueError):
        make_higher_order_kernel(make_kernel("boxcar", 1), 4)


def test_higher_order_epanechnikov():
    k = make_higher_order_kernel(make_kernel("epanechnikov", 1), 4)
    assert kernel_moment(k, np.array([0])) == pytest.approx(1.0, abs=1e-8)
    assert kernel_moment(k, np.array([2])) == pytest.approx(0.0, abs=1e-8)
    # (15/8)(1 - 7u^2/3) polynomial
    c = k.params[2]
    assert c[0] == pytest.approx(15.0 / 8.0, rel=1e-12, abs=0)
    assert c[1] == pytest.approx(-35.0 / 8.0, rel=1e-12, abs=0)


@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
@pytest.mark.parametrize("dim", [1, 2])
def test_sup_bound_on_dense_grid(kernel_id, dim):
    k = make_kernel(kernel_id, dim)
    grid_1d = np.linspace(-4.0, 4.0, 401)
    if dim == 1:
        pts = grid_1d[:, None]
    else:
        a, b = np.meshgrid(grid_1d, grid_1d, indexing="ij")
        pts = np.stack([a.ravel(), b.ravel()], axis=-1)
    vals = np.abs(np.prod(k.factor.fn(pts), axis=-1))
    assert np.max(vals) <= k.k_max + 1e-9


@pytest.mark.parametrize("kernel_id,order", [("gaussian_o4", 4), ("gaussian_o6", 6)])
def test_higher_order_vanishing_moments(kernel_id, order):
    k = make_kernel(kernel_id, 1)
    assert k.order == order
    for j in range(1, order):
        assert kernel_moment(k, np.array([j])) == pytest.approx(0.0, abs=1e-6)
    assert abs(kernel_moment(k, np.array([order]))) > 0.1


def test_bump_positive_exactly_on_open_cube(rng):
    k = make_kernel("bump", 2)
    pts = rng.uniform(-0.8, 0.8, size=(4000, 2))
    vals = np.prod(k.factor.fn(pts), axis=-1)
    inside = np.max(np.abs(pts), axis=-1) < 0.5
    assert np.all(vals[inside] > 0.0)
    assert np.all(vals[~inside] == 0.0)
    assert eval_kernel(k, np.array([0.5, 0.0])) == 0.0  # boundary


def test_gaussian_order_is_two():
    assert make_kernel("gaussian", 3).order == 2


def test_unknown_kernel_id_rejected():
    with pytest.raises(ValueError, match="unknown kernel id"):
        make_kernel("sinc", 1)


def test_quadrature_failure_reported():
    # a jump placed away from any declared break defeats panel alignment
    bad = _Factor(fn=lambda t: np.where(np.asarray(t) > 1.0 / 3.0, 1.0, 0.0),
                  sup=1.0, support=1.0, breaks=(), moment=None)
    spec = KernelSpec(family="boxcar-product", dim=1, order=2, k_max=1.0, factor=bad)
    with pytest.raises(QuadratureFailure):
        kernel_moment(spec, np.array([0]), QuadratureConfig(tol=1e-10, max_doublings=6))
