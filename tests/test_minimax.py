import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import naive_kl_monte_carlo, omega, omega_inverse, selection_t

from dyadreg.dgp import _stream, uniform_law
from dyadreg.errors import AssumptionViolation, PackingDegenerate
from dyadreg.kernels import DEFAULT_BUMP_AMPLITUDE, eval_kernel, make_kernel
from dyadreg.minimax import (_KL_CHUNK_ELEMENTS, _cg, _kl_monte_carlo, build_selection,
                             fano_kl_average, fit_bump_amplitude,
                             holder_floor, holder_membership_check, hypothesis_g,
                             kl_quadratic_form, kl_two_point, make_fano,
                             make_two_point, separation_check,
                             woodbury_gap, woodbury_sides)


def test_selection_n2():
    sel = build_selection(2)
    assert selection_t(sel).tolist() == [[1.0, 1.0], [1.0, 1.0]]
    assert sel.t_matvec(np.array([0.25, 0.5])).tolist() == [0.75, 0.75]


def test_selection_n3_rows():
    sel = build_selection(3)
    assert (sel.pair_i.tolist(), sel.pair_j.tolist()) == ([0, 0, 1], [1, 2, 2])
    half = selection_t(sel)[:3]
    assert half.tolist() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert np.all(half.sum(axis=0) == 2)  # N - 1


@pytest.mark.parametrize("n", [2, 5, 17])
def test_selection_invariants(n):
    sel = build_selection(n)
    t = selection_t(sel)
    assert np.all(t.sum(axis=1) == 2)
    assert np.all(t[: n * (n - 1) // 2].sum(axis=0) == n - 1)
    # matvec helpers agree with the dense matrix
    x = np.arange(1.0, n + 1.0)
    assert np.allclose(sel.t_matvec(x), t @ x)
    y = np.linspace(-1, 1, n * (n - 1))
    assert np.allclose(sel.t_rmatvec(y), t.T @ y)


def test_omega_n2_worked_example():
    sel = build_selection(2)
    assert omega(sel).tolist() == [[3.0, 2.0], [2.0, 3.0]]


@pytest.mark.parametrize("n", [2, 4, 9, 12])
def test_omega_eigenvalues_at_least_one(n):
    vals = np.linalg.eigvalsh(omega(build_selection(n)))
    assert np.min(vals) >= 1.0 - 1e-10


def test_omega_inverse_matches_dense_solve_n5():
    sel = build_selection(5)
    om = omega(sel)
    inv = omega_inverse(sel)
    dense = np.linalg.inv(om)
    assert np.max(np.abs(inv - dense)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_kl_quadratic_form_vs_dense(n, rng):
    sel = build_selection(n)
    om = omega(sel)
    t = selection_t(sel)
    for _ in range(3):
        k = rng.standard_normal(n)
        dense = float((t @ k) @ np.linalg.solve(om, t @ k))
        assert kl_quadratic_form(k, n) == pytest.approx(dense, rel=1e-10, abs=1e-12)


def test_kl_quadratic_form_hand_n2():
    # Omega = [[3,2],[2,3]], TK = (k1+k2) * ones -> qf = 0.4 (k1+k2)^2
    k1, k2 = 0.7, -0.2
    assert kl_quadratic_form(np.array([k1, k2]), 2) == pytest.approx(0.4 * (k1 + k2) ** 2, rel=1e-12, abs=0)


def test_woodbury_zero_vector():
    sel = build_selection(6)
    assert woodbury_gap(sel, np.zeros(6)) == 0.0


def test_woodbury_basis_vector_n3():
    sel = build_selection(3)
    t = selection_t(sel)
    core = np.eye(3) + t.T @ t
    e1 = np.array([1.0, 0.0, 0.0])
    lhs, rhs = woodbury_sides(sel, e1)
    assert rhs == pytest.approx(float(np.linalg.inv(core)[0, 0]), rel=1e-12, abs=0)
    assert abs(lhs - rhs) < 1e-10


def test_woodbury_random_n6(rng):
    sel = build_selection(6)
    for _ in range(5):
        k = rng.standard_normal(6)
        lhs, rhs = woodbury_sides(sel, k)
        assert abs(lhs - rhs) < 1e-10
        assert rhs >= -1e-12


def _woodbury_system(n, k):
    sel = build_selection(n)
    b = sel.t_matvec(k)
    scale = float(np.linalg.norm(b))
    return (lambda y: y + sel.t_matvec(sel.t_rmatvec(y))), b, scale


def test_cg_is_scipys_cg_bit_for_bit(rng):
    """_cg against scipy.sparse.linalg.cg with woodbury_sides' tolerances, on
    the I + T T^T operator, to the last bit of the solution, and
    woodbury_sides' left side against the one scipy's solution gives. At
    1e-200 the norm of b underflows to 0, and scipy returns b itself."""
    from scipy.sparse.linalg import LinearOperator, cg

    for n in (2, 3, 6, 50, 200):
        base = rng.standard_normal(n)
        for k in [s * base for s in (1e-200, 1e-100, 1e-8, 1.0, 1e8, 1e100)] + [np.zeros(n)]:
            matvec, b, scale = _woodbury_system(n, k)
            op = LinearOperator((len(b), len(b)), matvec=matvec, dtype=float)
            want, info = cg(op, b, rtol=1e-13, atol=1e-16 * max(scale, 1.0), maxiter=200)
            assert info == 0
            got = _cg(matvec, b, atol=max(1e-16 * max(scale, 1.0), 1e-13 * scale), maxiter=200)
            assert got.tobytes() == want.tobytes(), (n, scale)
            assert woodbury_sides(build_selection(n), k)[0] == float(k @ k - b @ want), (n, scale)
    matvec, b, scale = _woodbury_system(50, base[:50])
    op = LinearOperator((len(b), len(b)), matvec=matvec, dtype=float)
    _, info = cg(op, b, rtol=1e-13, atol=1e-16 * max(scale, 1.0), maxiter=1)
    assert info == 1
    with pytest.raises(AssumptionViolation) as exc:
        _cg(matvec, b, atol=max(1e-16 * max(scale, 1.0), 1e-13 * scale), maxiter=1)
    assert str(exc.value) == f"conjugate gradient failed to converge (info={info})"


def test_woodbury_overflow_stops_at_the_first_step_without_warnings(rng):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AssumptionViolation, match=r"broke down at step 1: rho = inf$"):
            woodbury_sides(build_selection(6), 1e200 * rng.standard_normal(6))
        lhs, rhs = woodbury_sides(build_selection(6), 1e150 * rng.standard_normal(6))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=0)


def test_cg_refuses_a_step_with_no_finite_positive_alpha():
    b = np.array([1.0, 2.0])
    with pytest.raises(AssumptionViolation, match=r"broke down at step 1: p.Ap = 0.0$"):
        _cg(lambda y: np.zeros_like(y), b, atol=1e-12, maxiter=10)
    with pytest.raises(AssumptionViolation, match=r"broke down at step 1: p.Ap = nan$"):
        _cg(lambda y: np.full_like(y, np.nan), b, atol=1e-12, maxiter=10)


def test_hypothesis_null_is_zero():
    con = make_two_point(2.0, 1.0, 1.0, 1)
    assert hypothesis_g(con, 0, np.array([0.3, 0.7]), 100) == 0.0


def test_two_point_coincident_centers_peak():
    x0 = np.array([0.5])
    con = make_two_point(2.0, 1.0, 1.0, 1, centers=(x0, x0))
    h = con.h_n(100)
    expect = 2.0 * 1.0 * h**2.0 * con.k_at_zero
    assert hypothesis_g(con, 1, np.array([0.5, 0.5]), 100) == pytest.approx(expect, rel=1e-12, abs=0)


def test_fano_disjoint_support_peaks():
    con = make_fano(2.0, 1.0, 0.5, 1)
    centers = con.fano_centers(200)
    h = con.h_n(200)
    w = np.array([centers[0, 0], centers[0, 0]])
    expect = 2.0 * h**2.0 * con.k_at_zero
    assert hypothesis_g(con, 1, w, 200) == pytest.approx(expect, rel=1e-12, abs=0)
    for other in range(2, len(centers) + 1):
        assert hypothesis_g(con, other, w, 200) == 0.0


def _constructions():
    for d_x, n in ((1, 200), (2, 400)):
        yield make_two_point(2.0, 1.0, 1.0, d_x), n
        yield make_fano(2.0, 1.0, 0.5, d_x), n


def _alternatives(con, n):
    """(centres of each alternative, share s), written out per variant."""
    if con.variant == "two-point":
        return [list(con.centers)], 0.5
    return [[c] for c in con.fano_centers(n)], 1.0


def _bump_sum(con, n, xs, centers, share):
    """L h^beta s (K((x - c) / h) + ...) over x in xs, then c in centers, one term at a time."""
    h = con.h_n(n)
    terms = [eval_kernel(con.kernel, (x - c) / h) for x in xs for c in centers]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return con.l_const * h**con.beta * share * total


@pytest.mark.parametrize("con, n", list(_constructions()),
                         ids=["two-point-1", "fano-1", "two-point-2", "fano-2"])
def test_hypothesis_g_is_a_sum_of_unit_effects(con, n, rng):
    d = con.d_x
    alternatives, share = _alternatives(con, n)
    # random points, plus every pair of centres so that no alternative is all zeros
    centers = con.hypothesis_centers(n).reshape(-1, d)
    pairs = np.hstack([np.repeat(centers, len(centers), axis=0), np.tile(centers, (len(centers), 1))])
    w = np.vstack([rng.random((200, 2 * d)), pairs])
    b1, b2 = con.unit_effects(w[:, :d], n), con.unit_effects(w[:, d:], n)
    assert b1.shape == (len(alternatives), len(w))
    for k, alt in enumerate(alternatives, start=1):
        g = hypothesis_g(con, k, w, n)
        assert np.max(g) > 0.0
        np.testing.assert_allclose(g, b1[k - 1] + b2[k - 1], rtol=1e-15, atol=0.0)
        # bit for bit: x1's bumps, then x2's, summed before the one scaling
        assert np.array_equal(g, _bump_sum(con, n, (w[:, :d], w[:, d:]), alt, share))


@pytest.mark.parametrize("con, n", list(_constructions()),
                         ids=["two-point-1", "fano-1", "two-point-2", "fano-2"])
def test_hypothesis_g_over_leading_axes_is_pointwise(con, n, rng):
    # w[i, j] = (x_i, x_j): the (N, N, 2 d_x) array a DGP's g receives
    units = 12
    centers = con.hypothesis_centers(n).reshape(-1, con.d_x)
    x = np.vstack([centers[: units // 2], rng.random((units, con.d_x))])[:units]
    w = np.concatenate(np.broadcast_arrays(x[:, None, :], x[None, :, :]), axis=-1)
    for k in range(1, min(3, len(con.hypothesis_centers(n)) + 1)):
        g = hypothesis_g(con, k, w, n)
        assert g.shape == (units, units) and np.max(g) > 0.0
        pointwise = [[hypothesis_g(con, k, w[i, j], n) for j in range(units)] for i in range(units)]
        assert np.array_equal(g, np.array(pointwise))


def _kl_loop(con, n, reps, seed, role):
    """(mean, se) of the KL Monte Carlo: unit effects built one centre at a time."""
    rng = _stream(seed, role)
    alternatives, share = _alternatives(con, n)
    kls = []
    for _ in range(reps):
        x = rng.random((n, con.d_x))
        rows = np.array([_bump_sum(con, n, (x,), alt, share) for alt in alternatives])
        kls.append(np.mean(0.5 * kl_quadratic_form(rows, n)))
    return float(np.mean(kls)), float(np.std(kls, ddof=1) / math.sqrt(reps))


@pytest.mark.parametrize("d_x", [1, 2])
def test_kl_monte_carlo_matches_a_loop_over_centres(d_x):
    con = make_two_point(2.0, 1.7, 0.9, d_x)
    rep = kl_two_point(con, 60, 7, 5)
    assert (rep.kl_mean, rep.kl_se) == _kl_loop(con, 60, 7, 5, 10)
    fano = make_fano(2.0, 1.7, 0.5, d_x)
    n = 200 if d_x == 1 else 400
    rep = fano_kl_average(fano, n, 7, 5)
    assert (rep.avg_kl, rep.kl_se) == _kl_loop(fano, n, 7, 5, 11)


# (variant, d_x, N) where the construction is defined: the packing has
# N h_N^d_x < 1 at N = 2, and at N = 3 with d_x = 2. At d_x = 2 it has 9
# alternatives at N = 50 and 200 and 16 at N = 400, past the 8 terms below
# which np.mean adds in a plain loop.
_KL_CASES = [(v, d, n) for v in ("two-point", "fano") for d in (1, 2) for n in (2, 3, 50, 200, 400)
             if v == "two-point" or n >= (3 if d == 1 else 50)]


@pytest.mark.parametrize("reps", [2, 3, 100, "two chunks and one"])
@pytest.mark.parametrize("variant,d_x,n", _KL_CASES, ids=[f"{v}-d{d}-n{n}" for v, d, n in _KL_CASES])
def test_chunked_kl_monte_carlo_is_the_per_replication_loop_bitwise(variant, d_x, n, reps):
    con = make_two_point(2.0, 1.7, 0.9, d_x) if variant == "two-point" else make_fano(2.0, 1.7, 0.5, d_x)
    if reps == "two chunks and one":
        reps = 2 * max(1, _KL_CHUNK_ELEMENTS // (con.hypothesis_centers(n).size * n)) + 1
    assert _kl_monte_carlo(con, n, reps, 7) == naive_kl_monte_carlo(con, n, reps, 7)


def test_kl_monte_carlo_memory_does_not_grow_with_reps():
    con = make_two_point(2.0, 1.7, 0.9, 1)
    tracemalloc.start()
    try:
        kl_two_point(con, 200, 20000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20  # 20000 x 200 draws alone would take 32 MB


def test_separation_two_point_equality_at_bound():
    # well-separated centers: the cross bump terms vanish and the gap equals
    # 2 A psi_N = L h^beta K(0) exactly
    con = make_two_point(2.0, 1.0, 1.0, 1, centers=(np.array([0.2]), np.array([0.8])))
    w0 = np.array([0.2, 0.8])
    res = separation_check(con, 1, 0, [w0], 100)
    h = con.h_n(100)
    assert res.required == pytest.approx(1.0 * h**2 * con.k_at_zero, rel=1e-12, abs=0)
    assert res.gap == pytest.approx(res.required, rel=1e-12, abs=0)
    assert res.passed
    assert res.a_const == pytest.approx(con.k_at_zero * con.c0**2 / 2.0, rel=1e-12, abs=0)


def test_separation_fano_pairs():
    con = make_fano(2.0, 1.0, 0.5, 1)
    centers = con.fano_centers(200)
    grid = np.hstack([centers, centers])
    h = con.h_n(200)
    for k in range(1, len(centers) + 1):
        for l in range(k + 1, len(centers) + 1):
            res = separation_check(con, k, l, grid, 200)
            assert res.gap == pytest.approx(2.0 * h**2 * con.k_at_zero, rel=1e-12, abs=0)
            assert res.passed


def test_separation_same_hypothesis_trivial():
    con = make_fano(2.0, 1.0, 0.5, 1)
    centers = con.fano_centers(200)
    grid = np.hstack([centers, centers])
    res = separation_check(con, 1, 1, grid, 200)
    assert res.gap == 0.0 and res.required == 0.0 and res.passed


def test_kl_zero_when_centers_outside_support():
    con = make_two_point(2.0, 1.0, 1.0, 1, centers=(np.array([5.0]), np.array([6.0])))
    rep = kl_two_point(con, 50, 50, 0)
    assert rep.kl_mean == 0.0 and rep.kl_se == 0.0


def test_kl_two_point_within_bound():
    con = make_two_point(2.0, 1.0, 1.0, 1)
    for n in (10, 100):
        rep = kl_two_point(con, n, 200, 0)
        assert rep.kl_mean <= rep.bound + 3.0 * rep.kl_se
        assert rep.n_h_dx >= 1.0


def test_kl_precondition_refusal():
    con = make_two_point(2.0, 1.0, 0.05, 1)
    with pytest.raises(AssumptionViolation, match="N h_N"):
        kl_two_point(con, 10, 10, 0)


def test_fano_packing_degenerate_refusal():
    con = make_fano(2.0, 1.0, 1.0, 1)  # m = floor(1/0.6) = 1 at N=50
    with pytest.raises(PackingDegenerate):
        fano_kl_average(con, 50, 10, 0)


def test_fano_kl_average_bound_and_packing_size():
    con = make_fano(2.0, 1.0, 0.5, 1)
    rep = fano_kl_average(con, 200, 100, 0)
    assert rep.avg_kl <= rep.bound + 3.0 * rep.kl_se
    assert rep.ln_m_n >= rep.ln_m_lower
    assert rep.m_n == 4 and rep.n_hypotheses == 4
    assert rep.alpha_implied == pytest.approx(rep.avg_kl / math.log(4), rel=1e-12, abs=0)


def test_fano_center_spacing_keeps_supports_disjoint():
    con = make_fano(2.0, 1.0, 0.5, 1)
    for n in (50, 100, 200, 400):
        m = con.m_n(n)
        assert 1.0 / m >= con.h_n(n) - 1e-15


def test_fano_center_bumps_pairwise_disjoint(rng):
    # the univariate center bumps are pairwise disjoint (this is what the KL
    # chain uses); the bivariate g_k share cross regions (x1 near one center,
    # x2 near another), so disjointness of g_k holds along the diagonal
    con = make_fano(2.0, 1.0, 0.5, 1)
    centers = con.fano_centers(200)
    h = con.h_n(200)
    m_total = len(centers)
    x = rng.uniform(-0.2, 1.2, size=(3000, 1))
    f = con.kernel.factor.fn
    bumps = np.stack([np.prod(f((x - c) / h), axis=-1) for c in centers])
    diag = np.hstack([x, x])
    gs = np.stack([hypothesis_g(con, k, diag, 200) for k in range(1, m_total + 1)])
    for k in range(m_total):
        for l in range(k + 1, m_total):
            assert np.all(bumps[k] * bumps[l] == 0.0)
            assert np.all(np.minimum(gs[k], gs[l]) == 0.0)


def test_kl_two_point_dx2_within_bound():
    con = make_two_point(2.0, 1.0, 1.0, 2,
                         centers=(np.array([0.3, 0.3]), np.array([0.7, 0.7])))
    rep = kl_two_point(con, 100, 150, 9)
    assert rep.kl_mean <= rep.bound + 3.0 * rep.kl_se
    assert rep.n_h_dx >= 1.0


def test_kl_two_point_beta_3half_lazy_amplitude():
    # no frozen amplitude for beta = 1.5: exercises the lazy bisection path
    con = make_two_point(1.5, 1.0, 1.0, 1)
    rep = kl_two_point(con, 60, 120, 13)
    assert rep.kl_mean <= rep.bound + 3.0 * rep.kl_se
    g = lambda pts: np.prod(con.kernel.factor.fn(np.asarray(pts, dtype=float)), axis=-1)
    check = holder_membership_check(g, 1.5, 0.5, 1, n_pairs=600, seed=11,
                                    tol=0.0, box=(-0.75, 0.75))
    assert check.passed


def test_indicator_sum_at_most_one(rng):
    con = make_fano(2.0, 1.0, 0.5, 1)
    centers = con.fano_centers(200)
    h = con.h_n(200)
    x = rng.uniform(-0.5, 1.5, size=(5000, 1))
    inside = np.abs(x[:, None, :] - centers[None, :, :]) / h <= 0.5
    counts = np.sum(np.all(inside, axis=-1), axis=-1)
    assert np.max(counts) <= 1


def test_k_vector_second_moment_bound(rng):
    # E[(K((X-x10)/h) + K((X-x20)/h))^2] <= 4 h^d B3 Kmax^2, B3 = 1 for the uniform law
    con = make_two_point(2.0, 1.0, 1.0, 1)
    h = con.h_n(100)
    law = uniform_law(1)
    c1, c2 = con.centers
    x = law.sample(rng, 200_000)
    f = con.kernel.factor.fn
    vals = (np.prod(f((x - c1) / h), axis=-1) + np.prod(f((x - c2) / h), axis=-1)) ** 2
    mc = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(len(vals)))
    assert mc <= 4.0 * h * 1.0 * con.kernel.k_max**2 + 3.0 * se


def test_holder_floor():
    assert holder_floor(2.0) == 1
    assert holder_floor(1.0) == 0
    assert holder_floor(1.5) == 1
    assert holder_floor(0.5) == 0
    assert holder_floor(3.0) == 2


def test_holder_zero_function_passes():
    rep = holder_membership_check(lambda w: np.zeros(np.asarray(w).shape[:-1]),
                                  2.0, 1.0, 2, n_pairs=200, seed=0)
    assert rep.passed and rep.max_violation_ratio == 0.0


def test_holder_sine_lipschitz():
    g = lambda w: np.sin(np.asarray(w)[..., 0])
    rep = holder_membership_check(g, 1.0, 1.0, 1, n_pairs=500, seed=1, box=(-2.0, 2.0))
    assert rep.passed


def test_holder_detects_violation():
    # |sin'| reaches 1 > 0.2, so Sigma(1, 0.2) must fail
    g = lambda w: np.sin(np.asarray(w)[..., 0])
    rep = holder_membership_check(g, 1.0, 0.2, 1, n_pairs=500, seed=1, box=(-2.0, 2.0))
    assert not rep.passed


def test_holder_rejects_large_beta():
    with pytest.raises(ValueError):
        holder_membership_check(lambda w: np.zeros(np.asarray(w).shape[:-1]), 4.5, 1.0, 1)


def test_frozen_bump_amplitudes_match_fitter():
    for (beta, d), frozen in DEFAULT_BUMP_AMPLITUDE.items():
        refit = fit_bump_amplitude(beta, d)
        assert refit == pytest.approx(frozen, rel=1e-9, abs=0)


def test_bump_kernel_passes_sigma_beta_half():
    for d in (1, 2):
        k = make_kernel("bump", d)
        g = lambda pts: np.prod(k.factor.fn(np.asarray(pts, dtype=float)), axis=-1)
        rep = holder_membership_check(g, 2.0, 0.5, d, n_pairs=1000, seed=3,
                                      tol=0.0, box=(-0.75, 0.75))
        assert rep.passed


def test_two_point_g1_in_holder_class():
    con = make_two_point(2.0, 1.0, 1.0, 1)
    g1 = lambda w: hypothesis_g(con, 1, w, 100)
    rep = holder_membership_check(g1, 2.0, 1.0, 2, n_pairs=800, seed=4,
                                  tol=0.05, box=(-0.25, 1.25))
    assert rep.passed
