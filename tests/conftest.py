"""Shared helpers: independent naive reference implementations.

These deliberately loop over ordered pairs and call eval_kernel point by
point, so they share no code path with the factorized production estimators.
naive_weights is the exception: it builds the factorized per-unit weights, but
evaluates the kernel factor at every (unit, grid point) pair, and is the
bitwise reference for estimator._weights. psi_hat and f_hat_w are not oracles:
they read the library's pair-sum contraction at a one-point grid, so they equal
nw_estimate at that point bit for bit. naive_simulate is the bitwise
reference for dgp.simulate: one draw of every pair's V at once, scattered into
an N x N matrix. selection_t and omega are the dense minimax selection
matrix T and error covariance I + T T^T, and omega_inverse its dense small-N
inverse. naive_kl_monte_carlo is the KL Monte Carlo one replication at a time,
one regressor draw and one quadratic form each: the bitwise reference for the
chunked minimax._kl_monte_carlo. naive_save_dataset and naive_load_dataset are
the row-wise dataset writer and loader, one csv.writer or csv.reader row per
pair: the reference for the bytes dgp.save_dataset writes and for the result or
error of dgp.load_dataset.
"""

import csv
import itertools
import json
import math
import os

import numpy as np
import pytest

from dyadreg.dgp import (_ROLE_U, _ROLE_V, _ROLE_X, DyadicDataset, _sibling_paths, _stream, make_dgp,
                         read_manifest, uniform_law)
from dyadreg.estimator import BandwidthRule, _dense_sums, _pair_sums
from dyadreg.kernels import eval_kernel
from dyadreg.minimax import kl_quadratic_form
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


def naive_hoeffding(data, kernel, h, tau, w):
    """(statistic, var1_hat, var2_hat) of the Hoeffding split: Z_ij formed
    pair by pair, then the row means and the doubly centered residuals
    Z_ij - R_i - R_j + statistic over unordered pairs."""
    n = data.n_units
    w = np.asarray(w, dtype=float)

    def term(i, j):
        y = data.y[i, j]
        if not abs(y) < tau:
            return 0.0
        wij = np.concatenate([data.x[i], data.x[j]])
        return y * eval_kernel(kernel, (wij - w) / h) * h ** (-kernel.dim)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    z = np.zeros((n, n))
    for i, j in pairs:
        z[i, j] = z[j, i] = 0.5 * (term(i, j) + term(j, i))
    statistic = sum(z[i, j] for i, j in pairs) / len(pairs)
    row_means = np.array([sum(z[i, j] for j in range(n) if j != i) / (n - 1) for i in range(n)])
    uc = row_means - statistic
    resid_ms = sum((z[i, j] - row_means[i] - row_means[j] + statistic) ** 2
                   for i, j in pairs) / len(pairs)
    var1 = 4.0 / n * max(sum(uc**2) / (n - 1) - resid_ms / (n - 1), 0.0)
    return statistic, var1, resid_ms / len(pairs)


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


def selection_t(sel):
    """Dense N(N-1) x N selection matrix T: row p of each half marks the two
    units of the p-th unordered pair in lexicographic order (both directions
    of a dyad load the same unit effects)."""
    pairs = list(itertools.combinations(range(sel.n_units), 2))
    t = np.zeros((len(pairs), sel.n_units))
    for p, (i, j) in enumerate(pairs):
        t[p, i] = t[p, j] = 1.0
    return np.vstack([t, t])


def omega(sel):
    """Dense error covariance I + T T^T; small N only."""
    t = selection_t(sel)
    return np.eye(t.shape[0]) + t @ t.T


def omega_inverse(sel):
    """Dense reference (I + T T^T)^{-1} = I - T (I_N + T^T T)^{-1} T^T, with
    the N x N core (2N - 3) I + 2 J solved densely; small N only, since it
    builds omega(sel) to verify the inverse."""
    om = omega(sel)
    t = selection_t(sel)
    n = sel.n_units
    core = (2 * n - 3) * np.eye(n) + 2.0 * np.ones((n, n))
    inv = np.eye(t.shape[0]) - t @ np.linalg.solve(core, t.T)
    assert np.max(np.abs(om @ inv - np.eye(t.shape[0]))) < 1e-8
    return inv


def naive_kl_monte_carlo(con, n_units, mc_reps, seed):
    """(h_N, N h_N^d_x, mean, se) of the minimax KL Monte Carlo, one draw of
    the N regressors and one batch of quadratic forms per replication."""
    h = con.h_n(n_units)
    n_h = n_units * h**con.d_x
    law = uniform_law(con.d_x)
    rng = _stream(seed, 10 if con.variant == "two-point" else 11)
    centers = con.hypothesis_centers(n_units)
    kls = np.empty(mc_reps)
    for r in range(mc_reps):
        kv = con.unit_effects(law.sample(rng, n_units), n_units, centers)
        kls[r] = np.mean(0.5 * kl_quadratic_form(kv, n_units))
    return h, n_h, float(np.mean(kls)), float(np.std(kls, ddof=1) / math.sqrt(mc_reps))


def psi_hat(data, kernel, h, w):
    """Kernel-weighted outcome average over ordered pairs, by the library."""
    return float(_pair_sums(data.x, kernel, h, [w], _dense_sums(data.y))[0][0])


def f_hat_w(data, kernel, h, w):
    """Kernel density estimate of f_W at w, by the library."""
    return float(_pair_sums(data.x, kernel, h, [w], _dense_sums(data.y))[1][0])


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


def naive_latents(spec, n_units, seed):
    """(x, u, v_pairs) with v_pairs drawn in one call: v_pairs[p] = (V_ij, V_ji)
    for the p-th pair i < j in lexicographic order."""
    x = spec.regressor_law.sample(_stream(seed, _ROLE_X), n_units)
    x = np.asarray(x, dtype=float).reshape(n_units, spec.d_x)
    u = _stream(seed, _ROLE_U).standard_normal(n_units)
    n_pairs = n_units * (n_units - 1) // 2
    v_pairs = _stream(seed, _ROLE_V).standard_normal((n_pairs, 2))
    return x, u, v_pairs


def naive_simulate(spec, n_units, seed):
    """The dataset of the seed contract: V scattered through triu_indices, then
    Y = g + U_i + U_j + V (or the graphon of the same latents)."""
    x, u, v_pairs = naive_latents(spec, n_units, seed)
    v = np.zeros((n_units, n_units))
    iu, ju = np.triu_indices(n_units, k=1)
    v[iu, ju] = v_pairs[:, 0]
    v[ju, iu] = v_pairs[:, 1]
    x1 = x[:, None, :]
    x2 = x[None, :, :]
    if spec.graphon is None:
        y = spec.g(x1, x2) + u[:, None] + u[None, :]
        y += v
    else:
        y = spec.graphon(x1, x2, u[:, None], u[None, :], v)
    return DyadicDataset(x=x, y=y)


def naive_save_dataset(data, pairs_path, meta=None):
    """The three dataset files, every row through csv.writer."""
    pairs_file, units_file, manifest_file = _sibling_paths(pairs_path)
    n, d = data.n_units, data.d_x
    with open(pairs_file, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["i", "j", "y"])
        for i in range(n):
            wr.writerows([i, j, v] for j, v in enumerate(data.y[i].tolist()) if j != i)
    with open(units_file, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["i"] + [f"x_{c + 1}" for c in range(d)])
        for i in range(n):
            wr.writerow([i] + [repr(float(v)) for v in data.x[i]])
    manifest = {"format": "dyadreg-dataset-v1", "n_units": n, "d_x": d,
                "pairs_file": os.path.basename(pairs_file),
                "units_file": os.path.basename(units_file), "meta": meta or {}}
    with open(manifest_file, "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _naive_rows(path, width):
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        for row in rows:
            if len(row) != width:
                raise ValueError(f"{path}, line {rows.line_num}: {row!r} does not have {width} fields")
            yield rows.line_num, row


def _naive_finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def naive_load_dataset(pairs_path):
    """(DyadicDataset, manifest): each row of the units and pairs files read
    through csv.reader and checked where it is read."""
    pairs_file, units_file, _ = _sibling_paths(pairs_path)
    manifest = read_manifest(pairs_path)
    n, d = manifest["n_units"], manifest["d_x"]
    x = np.full((n, d), np.nan)
    n_rows = 0
    for n_rows, (line, row) in enumerate(_naive_rows(units_file, 1 + d), 1):
        try:
            i, values = int(row[0]), [_naive_finite(v) for v in row[1:]]
        except ValueError as exc:
            raise ValueError(f"{units_file}, line {line}: {exc}") from None
        if not 0 <= i < n:
            raise ValueError(f"{units_file}: unit {i} outside 0..{n - 1}")
        x[i] = values
    if n_rows != n or np.isnan(x).any():
        raise ValueError(f"{units_file}: expected one row for each of the {n} units")
    y = np.full((n, n), np.nan)
    n_rows = 0
    for n_rows, (line, (i, j, value)) in enumerate(_naive_rows(pairs_file, 3), 1):
        try:
            i, j, value = int(i), int(j), _naive_finite(value)
        except ValueError as exc:
            raise ValueError(f"{pairs_file}, line {line}: {exc}") from None
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ValueError(f"{pairs_file}: pair ({i}, {j}) is diagonal or outside 0..{n - 1}")
        y[i, j] = value
    if n_rows != n * (n - 1) or np.count_nonzero(np.isnan(y)) != n:
        raise ValueError(f"{pairs_file}: expected one row for each of the {n * (n - 1)} ordered pairs")
    return DyadicDataset(x=x, y=y), manifest


def replace_cell(path, line, field, text):
    """Put `text` in comma-separated field `field` of line `line` (from 1) of a file."""
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[field] = text
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


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
