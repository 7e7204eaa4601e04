import math
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import naive_latents, naive_simulate, replace_cell
from dyadreg import dgp
from dyadreg.dgp import (DGP_KINDS, REGRESSION_FUNCS, Additive, DgpSpec, DyadicDataset, load_dataset,
                         make_dgp, replicate, replication_seed, save_dataset, simulate, simulate_latents,
                         true_g_on_grid, truncnorm_law, uniform_law)
from dyadreg.estimator import BandwidthRule


def test_zero_regression_n2_reconstructs_from_latents():
    spec = make_dgp("theorem1", "zero")
    data = simulate(spec, 2, 123)
    x, u, v_pairs = simulate_latents(spec, 2, 123)
    assert data.y[0, 1] == u[0] + u[1] + v_pairs[0, 0]
    assert data.y[1, 0] == u[1] + u[0] + v_pairs[0, 1]
    assert np.array_equal(data.x, x)


def test_constant_graphon_no_noise():
    spec = make_dgp("noiseless", "constant")
    data = simulate(spec, 6, 0)
    off = ~np.eye(6, dtype=bool)
    assert np.all(data.y[off] == 1.0)


def test_linear_additive_matches_bruteforce_reconstruction():
    spec = make_dgp("theorem1", "linear_additive")
    n = 3
    data = simulate(spec, n, 777)
    x, u, v_pairs = simulate_latents(spec, n, 777)
    pair_index = {}
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            pair_index[(i, j)] = idx
            idx += 1
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            p = pair_index[(min(i, j), max(i, j))]
            v = v_pairs[p, 0] if i < j else v_pairs[p, 1]
            expect = x[i].sum() + x[j].sum() + u[i] + u[j] + v
            assert data.y[i, j] == expect


def test_seed_determinism_bit_identical():
    spec = make_dgp("theorem1", "sin_additive", d_x=2, law="truncnorm")
    d1 = simulate(spec, 15, 9)
    d2 = simulate(spec, 15, 9)
    assert np.array_equal(d1.x, d2.x)
    assert np.array_equal(d1.y, d2.y, equal_nan=True)
    d3 = simulate(spec, 15, 10)
    assert not np.array_equal(d1.y, d3.y, equal_nan=True)


def test_off_diagonal_sums_are_the_sums_over_the_other_rows():
    """J v is, per column, the sum of the other rows' entries: to rel 1e-12 of
    the direct sum even where one entry outweighs the rest of its column."""
    rng = np.random.default_rng(3)
    v = rng.standard_normal((7, 4))
    v[2, 1], v[5, 3] = 1e9, -3e12  # sum v - v_i cancels in these rows
    got = dgp._off_diagonal_sums(v)
    for i in range(7):
        want = np.delete(v, i, axis=0).sum(axis=0)
        assert got[i] == pytest.approx(want, rel=1e-12, abs=0), i
    assert dgp._off_diagonal_sums(v[:1]).tolist() == [[0.0] * 4]


_B = dgp._V_BLOCK_ROWS
# 65 and 129 straddle 64-row blocks, whatever _B is
_ORACLE_SIZES = tuple(sorted({2, 3, _B - 1, _B, _B + 1, _B + 2, 2 * _B + 1, 65, 129, 300}))


@pytest.mark.parametrize("law", ["uniform", "truncnorm"])
@pytest.mark.parametrize("d_x", [1, 2])
def test_additive_g_is_its_unit_part_twice_bit_for_bit(d_x, law):
    """On the (rows, 1, d) x (1, N, d) shapes simulate evaluates g on, every
    shipped additive g is m(x1) + m(x2), with m's values those of m on the
    (N, d) regressors that _outcome_matmul reads; product and the graphon
    kinds have no unit part."""
    x = make_dgp("theorem1", d_x=d_x, law=law).regressor_law.sample(np.random.default_rng(5), 70)
    additive = [name for name, g in REGRESSION_FUNCS.items() if isinstance(g, Additive)]
    assert sorted(additive) == ["constant", "linear_additive", "sin3_additive", "sin_additive", "zero"]
    for name in additive:
        spec = make_dgp("theorem1", name, d_x=d_x, law=law)
        m = spec.unit_part
        assert m is REGRESSION_FUNCS[name].m
        for r0, r1 in ((0, 32), (32, 64), (64, 70)):
            x1, x2 = x[r0:r1, None, :], x[None, :, :]
            g = spec.g(x1, x2)
            assert g.shape == (r1 - r0, 70), name
            assert g.tobytes() == (m(x1) + m(x2)).tobytes() == (m(x)[r0:r1, None] + m(x)).tobytes(), name
    for spec in (make_dgp("theorem1", "product", d_x=d_x, law=law),
                 *(make_dgp(kind, d_x=d_x, law=law) for kind in DGP_KINDS if kind != "theorem1")):
        assert spec.unit_part is None, spec.name


@pytest.mark.parametrize("law", ["uniform", "truncnorm"])
@pytest.mark.parametrize("d_x", [1, 2])
@pytest.mark.parametrize("kind", DGP_KINDS)
def test_simulate_is_bitwise_the_one_shot_oracle(monkeypatch, kind, d_x, law):
    spec = make_dgp(kind, d_x=d_x, law=law)
    real_blocks = dgp._v_blocks
    consumed = []

    def recorded(seed, n_units):
        for r0, r1, vb in real_blocks(seed, n_units):
            consumed.append((r0, r1, vb.copy()))  # before its array is drawn into again
            yield r0, r1, vb

    monkeypatch.setattr(dgp, "_v_blocks", recorded)
    for n in _ORACLE_SIZES:
        for seed in (0, 7, 2**40 + 3):
            consumed.clear()
            got, want = simulate(spec, n, seed), naive_simulate(spec, n, seed)
            assert got.x.tobytes() == want.x.tobytes(), (n, seed)
            assert got.y.tobytes() == want.y.tobytes(), (n, seed)
            rows = [(r0, r1) for r0, r1, _ in consumed]
            assert rows == [(r0, min(r0 + _B, n - 1)) for r0 in range(0, n - 1, _B)]
            v_pairs = np.concatenate([vb for _, _, vb in consumed])
            latents = simulate_latents(spec, n, seed)
            assert v_pairs.tobytes() == latents[2].tobytes(), (n, seed)
            for a, b in zip(latents, naive_latents(spec, n, seed)):
                assert a.tobytes() == b.tobytes(), (n, seed)


def test_simulate_keeps_the_sign_of_a_graphons_zero_outcomes():
    spec = replace(make_dgp("noiseless", "zero"), graphon=lambda x1, x2, u1, u2, v: np.where(v > 0, -0.0, v))
    for n in (2, _B + 2, 65):
        got, want = simulate(spec, n, 3), naive_simulate(spec, n, 3)
        assert np.signbit(want.y[want.y == 0.0]).any(), n
        assert got.y.tobytes() == want.y.tobytes(), n


def _pair_noise(x1, x2, u1, u2, v):
    return v


@pytest.mark.parametrize("d_x", [1, 2])
@pytest.mark.parametrize("kind", DGP_KINDS + ("pair_noise",))
def test_pair_blocks_are_simulates_outcomes_bitwise(kind, d_x):
    if kind == "pair_noise":  # the graphon of test_pure_pair_noise_reverses_dominance
        spec = replace(make_dgp("noiseless", "zero", d_x=d_x), graphon=_pair_noise, name=kind)
    else:
        spec = make_dgp(kind, d_x=d_x)
    for n in (2, 3, _B, _B + 1, _B + 2, 65):
        for seed in (0, 7):
            data = simulate(spec, n, seed)
            x, blocks = dgp._pair_blocks(spec, n, seed)
            assert x.tobytes() == data.x.tobytes(), (n, seed)
            walk = []
            for r0, r1, up, low in blocks:
                walk.append((r0, r1))
                pairs = np.arange(r0, n) > np.arange(r0, r1)[:, None]
                assert up.tobytes() == np.where(pairs, data.y[r0:r1, r0:], 0.0).tobytes(), (n, seed, r0)
                assert low.tobytes() == np.where(pairs, data.y[r0:, r0:r1].T, 0.0).tobytes(), (n, seed, r0)
            assert walk == [(r0, min(r0 + _B, n - 1)) for r0 in range(0, n - 1, _B)]


def test_pair_blocks_refuse_non_finite_outcomes_and_regressors():
    def nan_where_u1_above_u2(x1, x2, u1, u2, v):
        return np.where(u1 > u2, np.nan, v)

    spec = replace(make_dgp("noiseless", "zero"), graphon=nan_where_u1_above_u2)
    with pytest.raises(ValueError, match="outcomes must be finite"):
        simulate(spec, 40, 1)
    with pytest.raises(ValueError, match="outcomes must be finite"):
        list(dgp._pair_blocks(spec, 40, 1)[1])
    nan_law = replace(uniform_law(1), sample=lambda rng, n: np.full((n, 1), np.nan))
    spec = replace(make_dgp("theorem1"), regressor_law=nan_law)
    for draw in (simulate, dgp._pair_blocks):
        with pytest.raises(ValueError, match="must be finite"):
            draw(spec, 40, 1)
    with pytest.raises(ValueError, match="^regressors must be finite$"):  # though g(NaN) is NaN too
        simulate(spec, 40, 1)


def test_diagonal_is_structurally_absent():
    data = simulate(make_dgp("theorem1", "zero"), 5, 1)
    assert np.all(np.diag(data.y) == 0.0)
    assert np.all(np.isfinite(data.y_filled()))


@pytest.mark.parametrize("kind, g_name, d_x", [("theorem1", "sin_additive", 1), ("theorem1", "product", 2),
                                               ("sigmoid_graphon", "sin_additive", 2),
                                               ("threshold_graphon", "sin_additive", 1),
                                               ("noiseless", "sin_additive", 1)])
def test_simulate_peak_memory_is_one_outcome_matrix_and_blocks(kind, g_name, d_x):
    spec = make_dgp(kind, g_name, d_x=d_x)
    n = 600
    simulate(spec, n, 1)
    tracemalloc.start()
    try:
        simulate(spec, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * n * n


def test_dataset_never_aliases_a_callers_or_a_dgps_array():
    x, y = np.random.default_rng(0).random((4, 1)), np.random.default_rng(1).random((4, 4))
    data = DyadicDataset(x, y)
    before = data.y.copy()
    y[0, 1] = 99.0
    assert np.array_equal(data.y, before) and not np.shares_memory(data.y, y)
    held = {}

    def graphon(x1, x2, u1, u2, v):
        held["graphon"] = out = v + 1.0
        return out

    def g(x1, x2):
        held["g"] = out = np.zeros(np.broadcast(x1[..., 0], x2[..., 0]).shape)
        return out

    for spec in (DgpSpec("held", uniform_law(1), 2.0, None, graphon), DgpSpec("held", uniform_law(1), 2.0, g)):
        data = simulate(spec, 5, 0)
        kept = data.y.copy()
        for array in held.values():
            assert not np.shares_memory(data.y, array)
            array += 1.0
        assert np.array_equal(data.y, kept)
        held.clear()


def test_replicate_results_do_not_depend_on_the_pool_size(monkeypatch):
    spec = make_dgp("theorem1", "sin_additive", d_x=2)
    rule = BandwidthRule("fixed", 0.3)

    def statistic(data, h):
        return data.x.tobytes() + data.y.tobytes(), h

    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 8):
            monkeypatch.setattr(dgp, "_THREADS", threads)
            runs.append(list(replicate(spec, rule, (3, 40, 70), 30, 9, statistic)))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1]
    assert [n for n, _ in runs[0]] == [3, 40, 70] and all(len(stats) == 30 for _, stats in runs[0])
    data = simulate(spec, 40, replication_seed(9, 1, 5))
    assert runs[1][1][1][5] == (data.x.tobytes() + data.y.tobytes(), 0.3)


def test_replicate_reraises_a_failing_statistic_and_cancels_the_rest(monkeypatch):
    monkeypatch.setattr(dgp, "_THREADS", 4)
    spec = make_dgp("theorem1", "sin_additive")
    first = simulate(spec, 20, replication_seed(5, 0, 0)).x
    failure = RuntimeError("statistic failed")
    calls = []

    def statistic(data, h):
        calls.append(h)
        if np.array_equal(data.x, first):
            raise failure
        time.sleep(0.005)  # the others take long enough that cancelling them shows

    with pytest.raises(RuntimeError) as info:
        list(replicate(spec, BandwidthRule("fixed", 0.3), (20,), 200, 5, statistic))
    assert info.value is failure
    assert len(calls) <= 8


def test_replicate_reraises_the_first_failing_replications_exception(monkeypatch):
    monkeypatch.setattr(dgp, "_THREADS", 4)
    spec = make_dgp("theorem1", "sin_additive")
    failing = {simulate(spec, 20, replication_seed(5, 0, rep)).x.tobytes(): rep for rep in (3, 7)}

    def statistic(data, h):
        rep = failing.get(data.x.tobytes())
        if rep is not None:
            raise ValueError(f"rep {rep}")

    with pytest.raises(ValueError, match="rep 3"):
        list(replicate(spec, BandwidthRule("fixed", 0.3), (20,), 50, 5, statistic))


def test_replicate_queue_gives_equal_results_on_pools_of_1_2_and_8(monkeypatch):
    """One queue over four sizes: each N's list in replication order, each
    replication from its own seed, whatever the pool size."""
    spec = make_dgp("theorem1", "sin_additive")
    rule = BandwidthRule("fixed", 0.3)

    def statistic(data, h):
        return data.y.tobytes(), h

    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 8):
            monkeypatch.setattr(dgp, "_THREADS", threads)
            runs.append(list(replicate(spec, rule, (3, 9, 27, 40), 12, 4, statistic)))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]
    assert [n for n, _ in runs[0]] == [3, 9, 27, 40] and all(len(stats) == 12 for _, stats in runs[0])
    for idx, (n, stats) in enumerate(runs[0]):
        assert stats[7] == (simulate(spec, n, replication_seed(4, idx, 7)).y.tobytes(), 0.3)


def test_replicate_queue_reraises_the_first_failure_in_n_then_rep_order(monkeypatch):
    """(N_1, rep 2) is queued before (N_0, rep 5) and may fail first, but
    N_0's failure is the one re-raised."""
    monkeypatch.setattr(dgp, "_THREADS", 2)
    spec = make_dgp("theorem1", "sin_additive")
    failing = {simulate(spec, n, replication_seed(5, idx, rep)).x.tobytes(): f"N={n} rep {rep}"
               for idx, n, rep in ((1, 30, 2), (0, 20, 5))}

    def statistic(data, h):
        label = failing.get(data.x.tobytes())
        if label is not None:
            raise ValueError(label)

    with pytest.raises(ValueError, match="N=20 rep 5"):
        list(replicate(spec, BandwidthRule("fixed", 0.3), (20, 30, 40, 50), 20, 5, statistic))


def test_replicate_queue_is_cancelled_when_the_generator_closes(monkeypatch):
    """Closing the generator after the first N cancels the replications
    still queued: the calls made are at most those queued up to N_0's last
    replication plus two per thread, and none start after the close."""
    threads, reps, sizes = 2, 10, (20, 30, 40, 50, 60, 70, 80, 90)
    monkeypatch.setattr(dgp, "_THREADS", threads)
    calls = []

    def statistic(data, h):
        calls.append(data.n_units)
        time.sleep(0.005)  # long enough that the pool cannot run far past N_0 before the close

    gen = replicate(make_dgp("theorem1", "sin_additive"), BandwidthRule("fixed", 0.3), sizes, reps, 5, statistic)
    n, stats = next(gen)
    gen.close()
    made = len(calls)
    time.sleep(0.05)
    assert n == 20 and len(stats) == reps
    assert len(calls) == made <= (reps - 1) * len(sizes) + 1 + 2 * threads < reps * len(sizes)


def test_dataset_validation():
    with pytest.raises(ValueError):
        DyadicDataset(x=np.zeros((1, 1)), y=np.zeros((1, 1)))
    for value in (np.nan, np.inf, -np.inf):
        y = np.zeros((3, 3))
        y[2, 2] = value  # not data: the diagonal is set to zero
        assert np.array_equal(DyadicDataset(x=np.zeros((3, 1)), y=y).y, np.zeros((3, 3)))
        y[0, 1] = value
        with pytest.raises(ValueError, match="outcomes must be finite"):
            DyadicDataset(x=np.zeros((3, 1)), y=y)


def test_validation_makes_no_n_by_n_temporary():
    n = 600
    x, y = np.random.default_rng(0).random((n, 1)), np.random.default_rng(1).random((n, n))
    data = DyadicDataset._adopt(x, y)
    data._validate()
    tracemalloc.start()
    try:
        data._validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n / 16


def test_disjoint_index_independence():
    spec = make_dgp("theorem1", "zero")
    y12, y34 = [], []
    for seed in range(1500):
        d = simulate(spec, 4, seed)
        y12.append(d.y[0, 1])
        y34.append(d.y[2, 3])
    r = np.corrcoef(y12, y34)[0, 1]
    se = 1.0 / math.sqrt(len(y12))
    assert abs(r) <= 3 * se


def test_shared_index_dependence_one_third():
    spec = make_dgp("theorem1", "zero")
    y12, y13 = [], []
    for seed in range(4000):
        d = simulate(spec, 3, seed)
        y12.append(d.y[0, 1])
        y13.append(d.y[0, 2])
    r = np.corrcoef(y12, y13)[0, 1]
    # Var = 3, shared-U1 covariance = 1
    se = (1 - (1 / 3) ** 2) / math.sqrt(len(y12))
    assert r == pytest.approx(1.0 / 3.0, abs=3.5 * se)


def test_relative_exchangeability_smoke():
    spec = make_dgp("theorem1", "sin_additive")
    perm = np.array([3, 0, 2, 1, 4])
    stat_plain, stat_perm = [], []
    for seed in range(400):
        d = simulate(spec, 5, seed)
        stat_plain.append(np.nanmean(d.y))
        d2 = simulate(spec, 5, seed + 10_000)
        y = d2.y[np.ix_(perm, perm)]
        stat_perm.append(np.nanmean(y))
    res = ks_2samp(stat_plain, stat_perm)
    assert res.pvalue > 0.01


def test_true_g_examples():
    spec = make_dgp("theorem1", "sin_additive")
    assert true_g_on_grid(spec, [[0.0, 0.0]])[0] == 0.0
    spec_prod = make_dgp("theorem1", "product")
    assert true_g_on_grid(spec_prod, [[0.5, 0.2]])[0] == pytest.approx(0.1, rel=1e-12, abs=0)


def test_true_g_threshold_graphon_normal_cdf():
    spec = make_dgp("threshold_graphon")
    val = true_g_on_grid(spec, [[0.0, 0.0]])[0]
    assert val == pytest.approx(0.5, abs=1e-12)


def test_true_g_refuses_a_graphon_without_a_conditional_mean():
    spec = make_dgp("sigmoid_graphon")
    with pytest.raises(ValueError, match="no closed-form conditional mean"):
        true_g_on_grid(spec, [[0.0, 0.0]])


def test_laws():
    tl = truncnorm_law(1)
    rng = np.random.default_rng(0)
    x = tl.sample(rng, 5000)
    assert np.all(np.abs(x) <= 2.0)


def test_roundtrip_persistence_exact(tmp_path):
    spec = make_dgp("theorem1", "sin_additive", d_x=2)
    data = simulate(spec, 12, 3)
    path = str(tmp_path / "d.csv")
    manifest = save_dataset(data, path, meta={"seed": 3})
    loaded, man2 = load_dataset(path)
    assert np.array_equal(data.x, loaded.x)
    assert np.array_equal(data.y, loaded.y, equal_nan=True)
    assert man2["n_units"] == 12 and man2["d_x"] == 2
    assert man2["meta"]["seed"] == 3
    assert manifest["format"] == "dyadreg-dataset-v1"


def test_failed_save_keeps_old_files_and_leaves_no_temp(tmp_path):
    path = str(tmp_path / "d.csv")
    spec = make_dgp("theorem1", "sin_additive")
    save_dataset(simulate(spec, 6, 1), path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    broken = simulate(spec, 6, 2)
    broken.y = None  # fails after the header row of the pairs file is written
    with pytest.raises(TypeError):
        save_dataset(broken, path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# each edit keeps the header line and breaks the one-row-per-index rule
_CORRUPTIONS = {
    "pairs missing": ("d.csv", lambda rows: rows[:-50]),
    "pairs header only": ("d.csv", lambda rows: []),
    "pairs duplicate": ("d.csv", lambda rows: rows[:-1] + [rows[1]]),
    "pairs diagonal": ("d.csv", lambda rows: rows[:-1] + ["3,3,0.5"]),
    "pairs out of range": ("d.csv", lambda rows: rows[:-1] + ["0,20,0.5"]),
    "units missing": ("d.units.csv", lambda rows: rows[:-1]),
    "units duplicate": ("d.units.csv", lambda rows: rows[:-1] + [rows[1]]),
    "units out of range": ("d.units.csv", lambda rows: rows[:-1] + ["-1,0.5"]),
}


@pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
def test_load_refuses_incomplete_or_repeated_rows(tmp_path, case):
    name, corrupt = _CORRUPTIONS[case]
    path = str(tmp_path / "d.csv")
    save_dataset(simulate(make_dgp("theorem1", "sin_additive"), 20, 1), path)
    target = tmp_path / name
    header, *rows = target.read_text().splitlines()
    target.write_text("\n".join([header] + corrupt(rows)) + "\n")
    with pytest.raises(ValueError, match=name):
        load_dataset(path)


# file, line, field, text: each a cell that is not an integer index or a finite number
_BAD_FIELDS = [("d.csv", 5, 2, "nan"), ("d.csv", 3, 2, "abc"), ("d.csv", 9, 2, "-inf"),
               ("d.csv", 2, 0, "1.0"), ("d.units.csv", 4, 1, "nan"), ("d.units.csv", 3, 0, "")]


@pytest.mark.parametrize("name,line,field,text", _BAD_FIELDS)
def test_load_names_the_file_line_and_text_of_a_bad_field(tmp_path, name, line, field, text):
    path = str(tmp_path / "d.csv")
    save_dataset(simulate(make_dgp("theorem1", "sin_additive"), 6, 1), path)
    target = tmp_path / name
    replace_cell(target, line, field, text)
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    message = str(info.value)
    assert message.startswith(f"{target}, line {line}: ") and repr(text) in message


def test_holder_function_wrapping_shipped_regressions():
    from dyadreg.dgp import REGRESSION_FUNCS
    from dyadreg.minimax import holder_membership_check

    g = REGRESSION_FUNCS["sin_additive"]
    gw = lambda w: g(np.asarray(w)[..., :1], np.asarray(w)[..., 1:])
    assert holder_membership_check(gw, 2.0, 5.0, 2, n_pairs=400, seed=2).passed
    assert gw(np.array([0.5, 0.2])) == pytest.approx(math.sin(0.5) + math.sin(0.2))
    # declaring an implausibly small constant fails the check
    assert not holder_membership_check(gw, 2.0, 0.05, 2, n_pairs=400, seed=2).passed


def test_make_dgp_rejects_unknown():
    with pytest.raises(ValueError, match="unknown"):
        make_dgp("nope")
    with pytest.raises(ValueError, match="unknown regression function"):
        make_dgp("theorem1", "nope")
