"""Conditionally-independent-dyad simulator and test regression functions.

Outcomes follow Y_ij = h(X_i, X_j, U_i, U_j, V_ij) for ordered pairs i != j,
with U, V standard normal. Every DGP's g(x1, x2) is E[Y_ij | X_i = x1, X_j = x2].
Without a graphon h, Y_ij = g(X_i, X_j) + U_i + U_j + V_ij: the model the
minimax bounds are stated for. Latent draws come from Philox streams keyed by
(seed, role) so a dataset is bit-identical given (spec, n_units, seed).
Outcomes are formed in one place, `_pair_blocks`, as blocks of pairs
(i, j > i) in the order of the one V stream. `simulate` writes them into Y;
a caller that only sums over pairs takes them with no N x N matrix:
variance_dominance splits a graphon or product DGP's replications there. An
additive DGP (no graphon, g = m(x1) + m(x2)) has outcomes c_i + c_j + V_ij,
c = m(X) + U (`_additive_units`): its rate studies take Y b (`_outcome_matmul`)
and its dominance studies the Hoeffding sums from c in closed form, through
the off-diagonal sums of `_off_diagonal_sums`, and one walk of the V draw.
`replicate` runs the replications of each N on a thread pool; each has its
own seed, so its results do not depend on the pool size.

The pairs CSV is written one row of Y at a time through a %-template and
read about 600 lines at a time, numpy reading the indices from the bytes.
The bytes written, and the result or error of a load, are those of a csv row
walk: a load falls back to that walk for any block the block parse cannot
take exactly. Float repr sets the floor of a save, and float conversion that
of a load; temporaries stay one row or one block in size.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import secrets
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DyadicDataset",
    "DgpSpec",
    "Additive",
    "RegressorLaw",
    "uniform_law",
    "truncnorm_law",
    "make_dgp",
    "simulate",
    "simulate_latents",
    "replication_seed",
    "replicate",
    "axes_grid",
    "true_g_on_grid",
    "atomic_open",
    "save_dataset",
    "read_manifest",
    "load_dataset",
    "REGRESSION_FUNCS",
    "DGP_KINDS",
]

_ROLE_X, _ROLE_U, _ROLE_V = 0, 1, 2
GRID_POINTS_MAX = 1 << 22  # the largest grid estimate and rates build: about 0.4 GB to estimate at d_x = 1


def _stream(seed: int, role: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(int(seed), role))))


def axes_grid(axes) -> np.ndarray:
    """Cartesian product of 1-d axes as rows (G, len(axes)), last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class RegressorLaw:
    name: str
    d_x: int
    sample: Callable[[np.random.Generator, int], np.ndarray]


def uniform_law(d_x: int) -> RegressorLaw:
    """X uniform on the unit cube."""

    def sample(rng, n):
        return rng.random((n, d_x))

    return RegressorLaw("uniform", d_x, sample)


def truncnorm_law(d_x: int, radius: float = 2.0) -> RegressorLaw:
    """Standard normal truncated to [-radius, radius] per coordinate."""
    from scipy.special import ndtr, ndtri  # when the law is built, so replicate's threads import nothing

    def sample(rng, n):
        u = rng.random((n, d_x))
        lo = ndtr(-radius)
        return ndtri(lo + u * (1.0 - 2.0 * lo))

    return RegressorLaw("truncnorm", d_x, sample)


@dataclass(frozen=True)
class DgpSpec:
    name: str
    regressor_law: RegressorLaw
    beta: float                        # Holder smoothness the rate theory is stated for
    g: Callable | None                 # (x1, x2) -> E[Y | x1, x2], None if not closed-form
    graphon: Callable | None = None    # (x1, x2, u1, u2, v) -> outcome; None: g + U_i + U_j + V_ij

    def __post_init__(self):
        if self.g is None and self.graphon is None:
            raise ValueError("a dgp needs a regression function g or a graphon h")

    @property
    def d_x(self) -> int:
        return self.regressor_law.d_x

    @property
    def unit_part(self) -> Callable | None:
        """m if the outcomes are m(X_i) + m(X_j) + U_i + U_j + V_ij, else None."""
        return self.g.m if self.graphon is None and isinstance(self.g, Additive) else None


def _all_finite(y: np.ndarray) -> bool:
    """Whether every entry of y is finite: a NaN or an infinity carries through
    min or max, so no temporary of y's size is made."""
    return bool(np.isfinite(y.min()) and np.isfinite(y.max()))


@dataclass
class DyadicDataset:
    """Regressors x (N x d_x) and directed outcomes y (N x N, zero diagonal).

    Y_ii is not data. The dataset owns a C-ordered copy of y whose diagonal
    is 0.0, whatever the caller put there: the structural zero of the sums
    over pairs i != j, so estimators contract y as it is."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.array(self.y, dtype=float, order="C")
        self._validate()

    @classmethod
    def _adopt(cls, x: np.ndarray, y: np.ndarray) -> "DyadicDataset":
        """The dataset of float arrays x (N x d_x) and a C-ordered y that no
        one else holds, taking y itself rather than a copy, and checking
        nothing: the caller has made them as _validate would pass them, with
        finite x and off-diagonal y and a zero diagonal."""
        data = cls.__new__(cls)
        data.x, data.y = x, y
        return data

    def _validate(self):
        n = self.x.shape[0]
        if self.x.ndim != 2 or n < 2:
            raise ValueError("x must be (N, d_x) with N >= 2")
        if self.y.shape != (n, n):
            raise ValueError(f"y must be ({n}, {n}), got {self.y.shape}")
        np.fill_diagonal(self.y, 0.0)
        if not _all_finite(self.y):
            raise ValueError("off-diagonal outcomes must be finite")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("regressors must be finite")

    @property
    def n_units(self) -> int:
        return self.x.shape[0]

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    def y_filled(self, value: float = 0.0) -> np.ndarray:
        out = self.y.copy()
        np.fill_diagonal(out, value)
        return out


# --- shipped regression functions (vectorized over leading axes) -----------


def _coordsum(x):
    return np.sum(np.asarray(x, dtype=float), axis=-1)


@dataclass(frozen=True)
class Additive:
    """g(x1, x2) = m(x1) + m(x2), for a unit part m from (..., d_x) to (...)."""

    m: Callable

    def __call__(self, x1, x2):
        return self.m(x1) + self.m(x2)


REGRESSION_FUNCS: dict[str, Callable] = {
    "zero": Additive(lambda x: np.zeros(np.shape(x)[:-1])),
    "constant": Additive(lambda x: np.full(np.shape(x)[:-1], 0.5)),
    "linear_additive": Additive(_coordsum),
    "sin_additive": Additive(lambda x: np.sum(np.sin(np.asarray(x, dtype=float)), axis=-1)),
    "sin3_additive": Additive(lambda x: np.sum(np.sin(3.0 * np.asarray(x, dtype=float)), axis=-1)),
    "product": lambda x1, x2: _coordsum(x1) * _coordsum(x2),
}

DGP_KINDS = ("theorem1", "sigmoid_graphon", "threshold_graphon", "noiseless")


def make_dgp(kind: str, g_name: str = "sin_additive", d_x: int = 1,
             law: str = "uniform", beta: float = 2.0) -> DgpSpec:
    """Shipped data-generating processes, addressable from config files."""
    if law not in ("uniform", "truncnorm"):
        raise ValueError(f"unknown regressor law {law!r}")
    if d_x < 1:
        raise ValueError(f"d_x must be >= 1, got {d_x}")
    if kind in ("theorem1", "noiseless") and g_name not in REGRESSION_FUNCS:
        raise ValueError(f"unknown regression function {g_name!r}; known: {', '.join(sorted(REGRESSION_FUNCS))}")
    reg_law = uniform_law(d_x) if law == "uniform" else truncnorm_law(d_x)
    if kind in ("theorem1", "noiseless"):
        g = REGRESSION_FUNCS[g_name]
        graphon = None if kind == "theorem1" else lambda x1, x2, u1, u2, v: g(x1, x2)
        return DgpSpec(f"{kind}:{g_name}", reg_law, beta, g, graphon)
    if kind == "sigmoid_graphon":
        def h(x1, x2, u1, u2, v):
            return 1.0 / (1.0 + np.exp(-(_coordsum(x1) + _coordsum(x2) + u1 + u2 + v)))

        return DgpSpec("sigmoid_graphon", reg_law, beta, None, graphon=h)
    if kind == "threshold_graphon":
        from scipy.special import ndtr  # when the DGP is built, so replicate's threads import nothing

        def h(x1, x2, u1, u2, v):
            return (u1 + u2 + _coordsum(x1) + _coordsum(x2) > 0).astype(float)

        def g(x1, x2):
            return ndtr((_coordsum(x1) + _coordsum(x2)) / math.sqrt(2.0))

        return DgpSpec("threshold_graphon", reg_law, beta, g, graphon=h)
    raise ValueError(f"unknown dgp kind {kind!r}; known: {', '.join(DGP_KINDS)}")


# --- simulation -------------------------------------------------------------


def _units(spec: DgpSpec, n_units: int, seed: int):
    """Regressors x (N x d_x) and unit effects u (N), each from its own stream."""
    if n_units < 2:
        raise ValueError("n_units must be >= 2")
    x = spec.regressor_law.sample(_stream(seed, _ROLE_X), n_units)
    x = np.asarray(x, dtype=float).reshape(n_units, spec.d_x)
    return x, _stream(seed, _ROLE_U).standard_normal(n_units)


_V_BLOCK_ROWS = 32  # a block of pairs and its outcomes take under a quarter of Y from N = 600


def _v_blocks(seed: int, n_units: int):
    """V in consecutive row blocks (r0, r1, vb): vb[p] = (V_ij, V_ji) for the
    pairs (i, j > i) of rows r0 <= i < r1, row by row. One Philox stream read
    in order, so the blocks concatenate to one draw of every pair at once.
    Each block is a new array, freed once the caller drops it."""
    rng = _stream(seed, _ROLE_V)
    for r0 in range(0, n_units - 1, _V_BLOCK_ROWS):
        r1 = min(r0 + _V_BLOCK_ROWS, n_units - 1)
        yield r0, r1, rng.standard_normal(((r1 - r0) * (2 * n_units - r0 - r1 - 1) // 2, 2))


def simulate_latents(spec: DgpSpec, n_units: int, seed: int):
    """Latent draws (x, u, v_pairs); v_pairs[p] = (V_ij, V_ji) for the p-th
    unordered pair (i < j) in lexicographic order: the V blocks of simulate's
    outcome blocks, concatenated."""
    x, u = _units(spec, n_units, seed)
    return x, u, np.concatenate([vb for _, _, vb in _v_blocks(seed, n_units)])


def simulate(spec: DgpSpec, n_units: int, seed: int) -> DyadicDataset:
    """Draw a dyadic dataset; deterministic in (spec, n_units, seed).

    The _pair_blocks walk written into a zero Y, each block's up above the
    diagonal and its low below. Every outcome is copied once, not added to a
    zero, so Y keeps its bits, a negative zero's sign too. The dataset takes Y
    without a copy or a second check: _pair_blocks has refused non-finite
    regressors and outcomes, and left the diagonal zero."""
    x, blocks = _pair_blocks(spec, n_units, seed)
    y = np.zeros((n_units, n_units))
    below = np.tri(min(_V_BLOCK_ROWS, n_units - 1), k=-1, dtype=bool)  # where a block's square of Y takes low
    for r0, r1, up, low in blocks:
        m = r1 - r0
        y[r0:r1, r0:] = up
        y[r1:, r0:r1] = low[:, m:].T
        np.copyto(y[r0:r1, r0:r1], low[:, :m].T, where=below[:m, :m])
    return DyadicDataset._adopt(x, y)


def _v_pair_blocks(seed: int, n_units: int):
    """The _v_blocks walk with each block scattered by rows: (r0, r1, up, low)
    with up[i - r0, k] = V_ij and low[i - r0, k] = V_ji for j = r0 + k > i,
    and zero in the first r1 - r0 columns where j <= i. up and low hold until
    the next block, which rewrites them; each V block is freed before the yield."""
    rows = min(_V_BLOCK_ROWS, n_units - 1)
    up_array, low_array = np.empty(rows * n_units), np.empty(rows * n_units)
    pairs = np.arange(n_units) > np.arange(rows)[:, None]  # k > i - r0: column r0 + k holds a pair's V
    for r0, r1, vb in _v_blocks(seed, n_units):
        m, w = r1 - r0, n_units - r0
        up, low = up_array[:m * w].reshape(m, w), low_array[:m * w].reshape(m, w)
        up[:, :m] = low[:, :m] = 0.0
        up[pairs[:m, :w]], low[pairs[:m, :w]] = vb[:, 0], vb[:, 1]
        del vb
        yield r0, r1, up, low


def _pair_blocks(spec: DgpSpec, n_units: int, seed: int):
    """(x, blocks): the regressors and outcomes of simulate(spec, n_units, seed),
    with no N x N matrix. blocks yields (r0, r1, up, low) in the
    _v_pair_blocks walk: up[i - r0, k] = Y_ij and low[i - r0, k] = Y_ji for
    j = r0 + k > i, and zero elsewhere; up and low hold until the next block.
    Y_ij is ((g + U_i) + U_j) + V_ij or the graphon h(X_i, X_j, U_i, U_j,
    V_ij). Non-finite regressors raise ValueError before any outcome is
    formed, then non-finite outcomes.

    Beside up and low, each V block is a new array, freed before the outcomes
    are formed, and they are formed on half a block's rows at a time: g's
    result and its scratch are then half a block each, so the peak stays near
    four block-sized arrays (about 0.22 x 8 N^2 bytes at N = 600)."""
    x, u = _units(spec, n_units, seed)
    if not np.all(np.isfinite(x)):
        raise ValueError("regressors must be finite")

    def blocks():
        square = np.tri(min(_V_BLOCK_ROWS, n_units - 1), dtype=bool)  # j <= i in a block's first columns
        for r0, r1, up, low in _v_pair_blocks(seed, n_units):
            m = r1 - r0
            scratch = np.empty(((m + 1) // 2, n_units - r0))
            for p0 in range(0, m, len(scratch)):
                p1 = min(p0 + len(scratch), m)
                i, j, s = slice(r0 + p0, r0 + p1), slice(r0, None), scratch[:p1 - p0]
                x_i, x_j, u_i, u_j = x[i, None, :], x[None, j, :], u[i, None], u[None, j]
                for v, x1, x2, u1, u2 in ((up[p0:p1], x_i, x_j, u_i, u_j), (low[p0:p1], x_j, x_i, u_j, u_i)):
                    if spec.graphon is not None:
                        v[...] = spec.graphon(x1, x2, u1, u2, v)
                    else:  # out= makes s v's shape even where g's result only broadcasts to it
                        np.add(spec.g(x1, x2), u1, out=s)
                        s += u2
                        v += s  # V + (g + U_i + U_j) is the same sum bit for bit, since IEEE addition commutes
            del scratch, s  # s is a view of scratch, which would otherwise outlive the yield
            up[:, :m][square[:m, :m]] = low[:, :m][square[:m, :m]] = 0.0
            if not (_all_finite(up) and _all_finite(low)):
                raise ValueError("off-diagonal outcomes must be finite")
            yield r0, r1, up, low

    return x, blocks()


def _off_diagonal_sums(v: np.ndarray) -> np.ndarray:
    """J v for v (N x M): (J v)_i = the sum of v_j over j != i, per column.
    It is sum v - v_i, but the row of each column's largest |v_i| takes the
    sum of the column's other entries, since there the difference cancels."""
    out = np.abs(v)
    top, cols = out.argmax(axis=0), np.arange(v.shape[1])
    out[...] = v
    out[top, cols] = 0.0
    rest = out.sum(axis=0)
    np.subtract(rest + v[top, cols], v, out=out)
    out[top, cols] = rest
    return out


def _additive_units(spec: DgpSpec, n_units: int, seed: int):
    """(x, c): the regressors of simulate(spec, n_units, seed) and c = m(X) + U,
    for a DGP with a unit part m, whose outcomes are Y_ij = c_i + c_j + V_ij.
    Non-finite c or x raise simulate's ValueError, in simulate's order."""
    m = spec.unit_part
    if m is None:
        raise ValueError(f"dgp {spec.name!r} is not additive: it has no unit part m")
    x, u = _units(spec, n_units, seed)
    if not np.all(np.isfinite(x)):
        raise ValueError("regressors must be finite")
    c = m(x) + u
    if not np.all(np.isfinite(c)):
        raise ValueError("off-diagonal outcomes must be finite")
    return x, c


def _outcome_matmul(spec: DgpSpec, n_units: int, seed: int):
    """(x, y_matmul): the regressors of simulate(spec, n_units, seed) and the
    function taking weights b (N x M) to Y @ b for that dataset's Y, with no
    N x N matrix. Only for an additive DGP: c∘(J b) + J(c∘b) (_additive_units,
    _off_diagonal_sums) plus each V block's rows against b and its columns
    against b's rows of the block, to rounding. At N = 600 a replication peaks
    at 0.23 x 8 N^2 bytes on one point, 0.39 on a 2401-point d_x = 2 grid,
    whose halves share one N x 49 weight array (estimator._half_weights)."""
    x, c = _additive_units(spec, n_units, seed)

    def y_matmul(b: np.ndarray) -> np.ndarray:
        out = _off_diagonal_sums(c[:, None] * b)
        out += c[:, None] * _off_diagonal_sums(b)
        for r0, r1, up, low in _v_pair_blocks(seed, n_units):
            out[r0:r1] += up @ b[r0:]
            out[r0:] += low.T @ b[r0:r1]
        return out

    return x, y_matmul


def replication_seed(seed: int, idx: int, rep: int) -> int:
    """Seed of replication `rep` at the idx-th sample size of an experiment."""
    return int(np.random.SeedSequence(entropy=(seed, idx, rep)).generate_state(1)[0])


# threads of a replicate pool, at most one per replication: the CPUs this process may use
_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def replicate(spec: DgpSpec, rule, n_list, reps: int, seed: int, statistic, draw=None):
    """Monte Carlo loop: for each N in n_list yields (N, [statistic(data, h)
    for each of `reps` datasets]) with h = bandwidth(rule, N). Each
    replication's data is draw(spec, N, seed of the replication), by default
    simulate's dataset.

    The replications run on a pool of threads, one per CPU this process may
    use, and each list comes back in replication order, so the results do
    not depend on the pool size. `statistic` and `draw` (and a DGP's g, its
    unit part m, or graphon) must be safe to call from several threads at
    once. If either raises, the first failing replication's exception is
    re-raised here once the replications already running end; those still
    queued are cancelled."""
    from .estimator import bandwidth  # estimator imports this module

    draw = simulate if draw is None else draw  # at call time, so a test's or a tracer's swap of simulate holds

    def one(n, h, rep_seed):
        return statistic(draw(spec, n, rep_seed), h)

    pool = ThreadPoolExecutor(max_workers=max(1, min(_THREADS, reps)), thread_name_prefix="replicate")
    try:
        for idx, n in enumerate(n_list):
            h = bandwidth(rule, n)
            futures = [pool.submit(one, n, h, replication_seed(seed, idx, rep)) for rep in range(reps)]
            yield n, [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def true_g_on_grid(spec: DgpSpec, grid) -> np.ndarray:
    """g(w) = E[Y_12 | W_12 = w] on a list of points w in R^(2 d_x); ValueError
    for a DGP whose conditional mean has no closed form."""
    w = np.atleast_2d(np.asarray(grid, dtype=float))
    d = spec.d_x
    if w.shape[1] != 2 * d:
        raise ValueError(f"grid points must have length {2 * d}")
    if spec.g is None:
        raise ValueError(f"dgp {spec.name!r} has no closed-form conditional mean g")
    return np.asarray(spec.g(w[:, :d], w[:, d:]), dtype=float)


# --- persistence ------------------------------------------------------------


def _sibling_paths(pairs_path: str):
    base, _ = os.path.splitext(pairs_path)
    return pairs_path, base + ".units.csv", base + ".manifest.json"


@contextlib.contextmanager
def atomic_open(path: str):
    """Text handle on a new temporary file beside `path` that replaces `path`
    in one step when the block ends, or is removed if the block raises."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f"{name}.{secrets.token_hex(8)}.tmp")
    # as tempfile.mkstemp does, but 0o666: the umask, not mkstemp's 0o600, sets path's mode
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_dataset(data: DyadicDataset, pairs_path: str, meta: dict | None = None) -> dict:
    """Write pair-list CSV (i,j,y), unit CSV (i,x_1..x_d), and a JSON manifest,
    each atomically. Floats are written with repr so the round trip is exact.

    The pairs file is written one row of y at a time: a %-template of the
    row's lines, all but the diagonal's, takes i and the row's floats, which
    %r writes as repr does. The bytes are those csv.writer gives (CRLF line
    ends, no quoting) in half its time: about 70 ms against 140 ms at N=300,
    of which float repr alone takes about 47 ms. The temporaries are one
    row's strings."""
    pairs_file, units_file, manifest_file = _sibling_paths(pairs_path)
    n, d = data.n_units, data.d_x
    lines = [f"%s,{j},%r\r\n" for j in range(n)]  # line j of any row: i, j, y_ij
    with atomic_open(pairs_file) as fh:
        fh.write("i,j,y\r\n")
        for i in range(n):
            row = data.y[i].tolist()
            del row[i]
            fields = [str(i)] * (2 * n - 2)
            fields[1::2] = row
            fh.write("".join(lines[:i] + lines[i + 1:]) % tuple(fields))
    with atomic_open(units_file) as fh:
        wr = csv.writer(fh)
        wr.writerow(["i"] + [f"x_{c + 1}" for c in range(d)])
        for i in range(n):
            wr.writerow([i] + [repr(float(v)) for v in data.x[i]])
    manifest = {
        "format": "dyadreg-dataset-v1",
        "n_units": n,
        "d_x": d,
        "pairs_file": os.path.basename(pairs_file),
        "units_file": os.path.basename(units_file),
        "meta": meta or {},
    }
    with atomic_open(manifest_file) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _data_rows(path: str, width: int):
    """(line, fields) for each row after the header of a dataset CSV,
    refusing any without `width` fields."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        for row in rows:
            if len(row) != width:
                raise ValueError(f"{path}, line {rows.line_num}: {row!r} does not have {width} fields")
            yield rows.line_num, row


def _finite(text: str) -> float:
    """float(text), refusing nan and inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def read_manifest(pairs_path: str) -> dict:
    """The JSON manifest save_dataset wrote beside `pairs_path`. Raises
    ValueError unless it states integers n_units >= 2 and d_x >= 1."""
    with open(_sibling_paths(pairs_path)[2]) as fh:
        manifest = json.load(fh)
    fields = manifest if isinstance(manifest, dict) else {}
    n, d = fields.get("n_units"), fields.get("d_x")
    # type(), not isinstance: a JSON true loads as a bool, which is an int subclass
    if not (type(n) is int and type(d) is int and n >= 2 and d >= 1):
        raise ValueError(f"{pairs_path}: manifest must state integers n_units >= 2 and d_x >= 1")
    return manifest


_BLOCK_CHARS = 1 << 14  # about 600 pairs lines; 4x and 16x that raised a CLI session's peak RSS by 1.3 and 4 MB


class _Irregular(ValueError):
    """A pairs block that the block parse cannot read exactly as csv.reader does."""


def _scatter_block(y: np.ndarray, text: str, limit: int) -> int:
    """Put a block of whole pairs lines into y and return its line count.
    Raises _Irregular unless the block is ASCII lines of three unquoted fields,
    at most `limit` characters long, that all end in CRLF or all in LF, with
    every index 1 to 18 digits (read by numpy, as int reads them), in range
    and off the diagonal, and every value finite under float, the row walk's
    conversion: there a line is one csv record, its fields are the text
    between its commas, and the row walk would take each row."""
    b = np.frombuffer(text.encode("ascii"), np.uint8)
    lf = np.flatnonzero(b == 10)
    cr = np.flatnonzero(b == 13)
    if (cr.size and not np.array_equal(cr + 1, lf)) or (b == 34).any():
        raise _Irregular
    ends = cr if cr.size else lf  # where each line's end starts
    starts = np.concatenate(([-1], lf[:-1]))  # the line end before each line
    commas = np.flatnonzero(b == 44)
    m = ends.size
    if not (commas.size == 2 * m and (commas[0::2] > starts).all() and (commas[1::2] < ends).all()
            and (ends - starts - 1).max() <= limit):
        raise _Irregular
    # i and j of each line as rows of k digits, right-aligned: the pad reads
    # bytes before the field (before the block: a negative position) and is zeroed
    width = commas - np.column_stack((starts, commas[0::2])).ravel() - 1
    k = width.max()
    if not (width.min() >= 1 and k <= 18):  # int64 holds any 18 digits
        raise _Irregular
    digits = b[commas[:, None] - k + np.arange(k)] - 48
    digits[np.arange(k) < k - width[:, None]] = 0
    i, j = (digits @ 10 ** np.arange(k - 1, -1, -1)).reshape(m, 2).T
    # with each line's second comma and CR made LFs, every value field is a
    # piece of its own between LFs: the second of every two, or three with CRs
    pieces = b.copy()
    pieces[commas[1::2]] = pieces[cr] = 10
    value = np.fromiter(map(float, pieces.tobytes().split(b"\n")[1::3 if cr.size else 2]), float, m)
    n = y.shape[0]
    if not ((digits <= 9).all() and np.isfinite(value).all() and ((i < n) & (j < n) & (i != j)).all()):
        raise _Irregular
    y[i, j] = value
    return m


def _pairs_by_block(pairs_file: str, n: int):
    """(y, rows read) of a pairs CSV read and parsed _BLOCK_CHARS at a time,
    so its temporaries are one block's. Raises _Irregular (or the ValueError
    or OverflowError of a conversion) wherever the row walk would refuse the
    file or might read it otherwise."""
    y = np.full((n, n), np.nan)
    n_rows = 0
    limit = csv.field_size_limit()
    with open(pairs_file, newline="") as fh:
        header = fh.readline()
        if '"' in header or len(header) > limit:
            raise _Irregular
        tail = ""
        for chunk in iter(lambda: fh.read(_BLOCK_CHARS), ""):
            text = tail + chunk
            cut = text.rfind("\n") + 1
            text, tail = text[:cut], text[cut:]
            if len(tail) > limit:  # a line longer than the block parse takes
                raise _Irregular
            if text:
                n_rows += _scatter_block(y, text, limit)
        if tail:  # a last line with no line feed, or only a CR, ends there all the same
            n_rows += _scatter_block(y, tail + "\n", limit)
    return y, n_rows


def _pairs_by_row(pairs_file: str, n: int):
    """(y, rows read) of a pairs CSV walked row by row through csv.reader,
    naming the file, line and text of the first bad row."""
    y = np.full((n, n), np.nan)
    n_rows = 0
    for n_rows, (line, (i, j, value)) in enumerate(_data_rows(pairs_file, 3), 1):
        try:
            i, j, value = int(i), int(j), _finite(value)
        except ValueError as exc:
            raise ValueError(f"{pairs_file}, line {line}: {exc}") from None
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ValueError(f"{pairs_file}: pair ({i}, {j}) is diagonal or outside 0..{n - 1}")
        y[i, j] = value
    return y, n_rows


def load_dataset(pairs_path: str):
    """Inverse of save_dataset; returns (DyadicDataset, manifest dict). Raises
    ValueError for an index out of range, a diagonal pair, a unit or ordered
    pair i != j that is missing or repeated, or, naming its line and text, a
    field that is not an integer index or a finite number.

    The pairs file is parsed a block of about 600 lines at a time: numpy finds
    the line ends and commas of the block and reads the indices from its
    bytes, and float converts each value. Any block that parse cannot take
    exactly as csv.reader does (a quote, a lone CR, a wrong field count, an
    index of over 18 digits or out of range, a failed conversion) sends the
    whole file back through the csv row walk, which gives its result or names
    the bad row. A clean file loads in about 55 ms at N=300 against 115 ms for
    the row walk; one block's temporaries (about 0.25 MB) sit beside y."""
    pairs_file, units_file, _ = _sibling_paths(pairs_path)
    manifest = read_manifest(pairs_path)
    n, d = manifest["n_units"], manifest["d_x"]
    x = np.full((n, d), np.nan)  # NaN marks a cell that no row has filled
    n_rows = 0
    for n_rows, (line, row) in enumerate(_data_rows(units_file, 1 + d), 1):
        try:
            i, values = int(row[0]), [_finite(v) for v in row[1:]]
        except ValueError as exc:
            raise ValueError(f"{units_file}, line {line}: {exc}") from None
        if not 0 <= i < n:
            raise ValueError(f"{units_file}: unit {i} outside 0..{n - 1}")
        x[i] = values
    if n_rows != n or np.isnan(x).any():
        raise ValueError(f"{units_file}: expected one row for each of the {n} units")
    try:
        y, n_rows = _pairs_by_block(pairs_file, n)
    except (ValueError, OverflowError):
        y, n_rows = _pairs_by_row(pairs_file, n)
    if n_rows != n * (n - 1) or np.count_nonzero(np.isnan(y)) != n:
        raise ValueError(f"{pairs_file}: expected one row for each of the {n * (n - 1)} ordered pairs")
    data = DyadicDataset._adopt(x, y)  # checked in place: a copy of y would double the peak
    data._validate()
    return data, manifest
