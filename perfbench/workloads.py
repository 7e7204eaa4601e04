"""The four benchmark workloads.

Each workload is built from the benchmark seed alone. `run_round` is one
whole unit of timed work (a complete Monte Carlo experiment, or one CLI
session). `settle_round` and `check` run after the clock stops and add to
`problems`, which stays empty when every output was correct. Everything
the checks compare against is computed here or in `reference.py`, apart
from the code under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

import reference

# the CLI invocations every session must see rejected with exit code 2
REJECTS = (
    ("simulate --n 1", lambda d: ["simulate", "--n", "1", "--seed", "1", "--out", f"{d}/r1.csv"], "r1.csv"),
    ("simulate --g bogus", lambda d: ["simulate", "--n", "20", "--g", "bogus", "--seed", "1",
                                      "--out", f"{d}/r2.csv"], "r2.csv"),
    ("diagnose --reps 10", lambda d: ["diagnose", "--n", "50,100", "--reps", "10", "--w", "0.5,0.5",
                                      "--out", f"{d}/r3.csv"], "r3.csv"),
    ("estimate --bandwidth fixed:-1", lambda d: ["estimate", "--data", f"{d}/d.csv", "--bandwidth",
                                                 "fixed:-1", "--grid", "0.2:0.8:9",
                                                 "--out", f"{d}/r4.csv"], "r4.csv"),
    ("estimate on a missing file", lambda d: ["estimate", "--data", f"{d}/missing.csv", "--grid",
                                              "0.2:0.8:9", "--out", f"{d}/r5.csv"], "r5.csv"),
)

RTOL = 1e-9   # program against the reference: the two sum in different orders


def derive(*keys) -> int:
    """A seed from a key tuple. derive(exp_seed, idx, rep) is also the
    per-replication seed rule of rates.run_rate_experiment and
    decomposition.variance_dominance, so single replications can be
    regenerated for checking."""
    return int(np.random.SeedSequence(entropy=tuple(int(k) for k in keys)).generate_state(1)[0])


def _close(a, b, rtol=RTOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(b), 1e-300)))


def _slope(xs, ys) -> float:
    x, y = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    xc = x - x.mean()
    return float(xc @ y / (xc @ xc))


def _sin_additive(grid) -> np.ndarray:
    return np.sum(np.sin(np.asarray(grid, dtype=float)), axis=-1)


class Workload:
    """run_round(r) is timed and returns the units of work it did;
    settle_round() runs after the clock stops and returns the operations
    attempted and failed in that round."""

    name = ""
    n_max = 0

    def __init__(self, seed: int, scratch: str, span):
        self.seed = seed
        self.scratch = scratch
        self.span = span      # context-manager factory for benchmark-side spans
        self.problems: list[str] = []
        self.notes: dict = {}     # figures the checks looked at, kept in the result file

    def fail(self, text: str):
        self.problems.append(text)

    def determinism_check(self):
        from dyadreg.dgp import simulate

        s = derive(self.seed, 7777)
        a, b = simulate(self.spec, self.n_max, s), simulate(self.spec, self.n_max, s)
        if a.x.tobytes() != b.x.tobytes() or a.y.tobytes() != b.y.tobytes():
            self.fail(f"simulate({self.spec.name}, {self.n_max}, {s}) is not bit-identical on repeat")


class _RateWorkload(Workload):
    """Shared by the two rate workloads: one round is one run_rate_experiment."""

    def _build(self, d_x, kernel_id, rule_mode, c0, mode, n_list, grid_steps, metric):
        from dyadreg.dgp import make_dgp
        from dyadreg.estimator import BandwidthRule
        from dyadreg.kernels import make_kernel
        from dyadreg.rates import product_grid

        self.spec = make_dgp("theorem1", "sin_additive", d_x=d_x)
        self.kernel_id, self.c0, self.d_x = kernel_id, c0, d_x
        self.kernel = make_kernel(kernel_id, 2 * d_x)
        self.rule = BandwidthRule(rule_mode, c0, beta=2.0, d_x=d_x)
        self.mode, self.n_list, self.reps, self.metric = mode, n_list, 50, metric
        self.grid_steps = grid_steps
        self.n_max = max(n_list)
        if mode == "pointwise":
            self.grid = np.array([[0.5, 0.5]])
        else:
            self.grid = product_grid(0.2, 0.8, grid_steps, 2 * d_x)
        self.g_true = _sin_additive(self.grid)
        self.fits = []

    def ref_bandwidth(self, n):
        fn = reference.pointwise_bandwidth if self.rule.mode == "pointwise-optimal" else reference.uniform_bandwidth
        return fn(self.c0, 2.0, self.d_x, n)

    def warm_up(self):
        from dyadreg.dgp import simulate
        from dyadreg.estimator import bandwidth, nw_estimate

        for n in self.n_list:
            nw_estimate(simulate(self.spec, n, derive(self.seed, 1, n)), self.kernel,
                        bandwidth(self.rule, n), self.grid)

    def experiment(self, r):
        from dyadreg.rates import RateExperiment

        return RateExperiment(dgp=self.spec, kernel_id=self.kernel_id, rule=self.rule, mode=self.mode,
                              n_list=self.n_list, reps=self.reps, seed=derive(self.seed, r),
                              w0=(0.5, 0.5) if self.mode == "pointwise" else None,
                              grid_lo=0.2, grid_hi=0.8, grid_steps=self.grid_steps, metric=self.metric)

    def run_round(self, r):
        from dyadreg.rates import run_rate_experiment

        self.fits.append(run_rate_experiment(self.experiment(r)))
        return len(self.n_list) * self.reps

    def settle_round(self):
        return len(self.n_list) * self.reps, sum(row.n_excluded_reps for row in self.fits[-1].rows)

    def _errors(self, exp, idx, estimate):
        """Per-replication errors at n_list[idx], by the given estimator."""
        from dyadreg.dgp import simulate

        n = self.n_list[idx]
        errs = []
        for rep in range(exp.reps):
            data = simulate(self.spec, n, derive(exp.seed, idx, rep))
            g = estimate(data)
            errs.append(float(np.max(np.abs(g - self.g_true))))
        return np.asarray(errs)

    def _sampled_reference(self, exp, n_points):
        """Two sampled replications per round against the reference."""
        from dyadreg.dgp import simulate
        from dyadreg.estimator import bandwidth, nw_estimate

        pick = np.random.default_rng(derive(self.seed, 99, exp.seed))
        for _ in range(2):
            idx = int(pick.integers(len(self.n_list)))
            rep = int(pick.integers(self.reps))
            n = self.n_list[idx]
            data = simulate(self.spec, n, derive(exp.seed, idx, rep))
            res = nw_estimate(data, self.kernel, bandwidth(self.rule, n), self.grid)
            pts = np.sort(pick.choice(len(self.grid), size=min(n_points, len(self.grid)), replace=False))
            g_ref, f_ref, def_ref = reference.nw(data.x, data.y, self.kernel_id, self.ref_bandwidth(n),
                                                 self.grid[pts])
            if not (np.array_equal(res.defined[pts], def_ref) and _close(res.f_hat[pts], f_ref)
                    and _close(res.g_hat[pts][def_ref], g_ref[def_ref])):
                self.fail(f"nw_estimate differs from the reference at N={n}, rep {rep} of seed {exp.seed}")

    def check_fit(self, fit):
        if not fit.valid or fit.degenerate:
            self.fail(f"rate fit invalid: {fit.invalid_reason or 'degenerate'}")
        if any(row.n_undefined for row in fit.rows):
            self.fail("undefined grid evaluations in a rate round")


class RatePointwise(_RateWorkload):
    name = "rate-pointwise"
    # the pooled fitted exponent must land within this distance of
    # -beta/(2 beta + d_x) = -0.4; calibrated in README.md
    band = 0.12

    def __init__(self, seed, scratch, span):
        super().__init__(seed, scratch, span)
        self._build(1, "gaussian", "pointwise-optimal", 0.5, "pointwise", (100, 200, 400, 800), 9, "rmse")

    def check(self):
        for r, fit in enumerate(self.fits):
            self.check_fit(fit)
            if abs(fit.foil_vs_n - fit.slope / 2.0) > 0.01:
                self.fail(f"foil_vs_n {fit.foil_vs_n:.4f} is not half the N exponent {fit.slope:.4f}")
            self._sampled_reference(self.experiment(r), 1)
        # the experiment's rows against errors recomputed by the reference, on
        # the two smallest sizes of the first round
        exp = self.experiment(0)
        for idx in (0, 1):
            h = self.ref_bandwidth(self.n_list[idx])
            errs = self._errors(exp, idx, lambda d: reference.nw(d.x, d.y, "gaussian", h, self.grid)[0])
            row = self.fits[0].rows[idx]
            if not _close([row.median_err, row.mean_err, row.rmse],
                          [np.median(errs), np.mean(errs), np.sqrt(np.mean(errs**2))]):
                self.fail(f"rate row at N={row.n_units} disagrees with the reference errors")
        pooled = [math.sqrt(np.mean([f.rows[i].rmse ** 2 for f in self.fits])) for i in range(len(self.n_list))]
        slope = _slope(self.n_list, pooled)
        self.notes = {"pooled_slope": slope, "round_slopes": [f.slope for f in self.fits],
                      "round_foils": [f.foil_vs_n for f in self.fits]}
        if abs(slope - (-0.4)) > self.band:
            self.fail(f"pooled RMSE exponent {slope:.4f} outside -0.4 +- {self.band}")
        self.determinism_check()


class RateSupnormD2(_RateWorkload):
    name = "rate-supnorm-d2"

    def __init__(self, seed, scratch, span):
        super().__init__(seed, scratch, span)
        self._build(2, "epanechnikov", "uniform-optimal", 0.8, "sup-norm", (50, 100, 200, 400), 7, "median")

    def check(self):
        from dyadreg.estimator import bandwidth, nw_estimate

        for r, fit in enumerate(self.fits):
            self.check_fit(fit)
            self._sampled_reference(self.experiment(r), 24)
        # one round's step from N to 2N lowers the median by 0.78 +- 0.07, so
        # the test is on the mean over rounds (two in a 15 s run)
        med = np.mean([[row.median_err for row in fit.rows] for fit in self.fits], axis=0)
        self.notes["median_sup_errors"] = [[row.median_err for row in fit.rows] for fit in self.fits]
        if not all(a > b for a, b in zip(med, med[1:])):
            self.fail(f"median sup error, averaged over rounds, does not fall with N: {med}")
        # the experiment's aggregation, recomputed at the smallest N
        exp = self.experiment(0)
        h = bandwidth(self.rule, self.n_list[0])
        errs = self._errors(exp, 0, lambda d: nw_estimate(d, self.kernel, h, self.grid).g_hat)
        if not _close(np.median(errs), self.fits[0].rows[0].median_err):
            self.fail("sup-norm row at the smallest N disagrees with a recomputation")
        self.determinism_check()


class Dominance(Workload):
    name = "dominance"

    def __init__(self, seed, scratch, span):
        super().__init__(seed, scratch, span)
        from dyadreg.dgp import make_dgp
        from dyadreg.estimator import BandwidthRule
        from dyadreg.kernels import make_kernel

        self.spec = make_dgp("theorem1", "sin_additive")
        self.kernel = make_kernel("epanechnikov", 2)
        self.rule = BandwidthRule("uniform-optimal", 1.0, beta=2.0, d_x=1)
        self.n_list, self.reps, self.w = (100, 1200), 50, np.array([0.5, 0.5])
        self.n_max = max(self.n_list)
        self.tables = []

    def warm_up(self):
        from dyadreg.decomposition import hoeffding_decompose
        from dyadreg.dgp import simulate
        from dyadreg.estimator import bandwidth

        for n in self.n_list:
            hoeffding_decompose(simulate(self.spec, n, derive(self.seed, 1, n)), self.kernel,
                                bandwidth(self.rule, n), math.inf, self.w)

    def run_round(self, r):
        from dyadreg.decomposition import variance_dominance

        self.tables.append(variance_dominance(self.spec, self.kernel, self.rule, self.n_list,
                                              self.reps, self.w, derive(self.seed, r)))
        return len(self.n_list) * self.reps

    def settle_round(self):
        return len(self.n_list) * self.reps, sum(row.n_excluded for row in self.tables[-1])

    def check(self):
        from dyadreg.decomposition import hoeffding_decompose
        from dyadreg.dgp import simulate
        from dyadreg.estimator import bandwidth

        for r, rows in enumerate(self.tables):
            ratios = [row.ratio for row in rows]
            self.notes.setdefault("ratios", []).append(ratios)
            if not (all(a > b for a, b in zip(ratios, ratios[1:])) and 0 < ratios[-1] < 0.2):
                self.fail(f"var_t2/var_t1 does not fall to below 0.2: {ratios}")
            seed = derive(self.seed, r)
            pick = np.random.default_rng(derive(self.seed, 99, r))
            for idx, n in enumerate(self.n_list):
                rep = int(pick.integers(self.reps))
                data = simulate(self.spec, n, derive(seed, idx, rep))
                h = reference.uniform_bandwidth(1.0, 2.0, 1, n)
                parts = hoeffding_decompose(data, self.kernel, bandwidth(self.rule, n), math.inf, self.w)
                psi, _ = reference.pair_sums(data.x, data.y, "epanechnikov", h, self.w[None, :])
                stat = reference.hoeffding_statistic(data.x, data.y, "epanechnikov", h, self.w)
                if not (_close(parts.statistic, psi[0]) and _close(stat, psi[0])):
                    self.fail(f"Hoeffding statistic differs from the reference psi_hat at N={n}")
        # the per-N table, recomputed at the smallest N of the first round
        seed, n = derive(self.seed, 0), self.n_list[0]
        h = bandwidth(self.rule, n)
        v1 = [hoeffding_decompose(simulate(self.spec, n, derive(seed, 0, rep)), self.kernel, h,
                                  math.inf, self.w).var1_hat for rep in range(self.reps)]
        if not _close(np.mean(v1), self.tables[0][0].var_t1):
            self.fail("dominance row at the smallest N disagrees with a recomputation")
        self.determinism_check()


class CliSession(Workload):
    name = "cli-session"
    n_units = 300
    grid = "0.2:0.8:9"

    def __init__(self, seed, scratch, span):
        super().__init__(seed, scratch, span)
        from dyadreg.dgp import make_dgp

        import dyadreg.cli  # noqa: F401  (the CLI is part of this workload's set-up)

        self.spec = make_dgp("theorem1", "sin_additive")
        self.n_max = self.n_units
        axis = np.linspace(0.2, 0.8, 9)
        a, b = np.meshgrid(axis, axis, indexing="ij")
        self.ref_grid = np.stack([a.ravel(), b.ravel()], axis=-1)
        self.dataset_bytes = []
        os.makedirs(scratch, exist_ok=True)

    def _invoke(self, argv):
        from dyadreg.cli import main

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:   # an uncaught exception is a traceback in a shell
            return f"raised {type(exc).__name__}", err.getvalue()
        return rc, err.getvalue()

    def session(self, d, seed, n, minimax_n, fano_n, reps):
        results = {}
        with self.span("cli.simulate"):
            results["simulate"] = self._invoke(["simulate", "--n", str(n), "--seed", str(seed),
                                                "--out", f"{d}/d.csv"])
        with self.span("cli.estimate"):
            results["estimate"] = self._invoke(["estimate", "--data", f"{d}/d.csv", "--grid", self.grid,
                                                "--out", f"{d}/est.csv"])
        for variant, extra, ns in (("two-point", [], minimax_n), ("fano", ["--c0", "0.5"], fano_n)):
            with self.span("cli.minimax"):
                results[variant] = self._invoke(["minimax", "--variant", variant, *extra, "--n", ns,
                                                 "--reps", str(reps), "--seed", str(seed),
                                                 "--out", f"{d}/{variant}.json"])
        for label, argv, _ in REJECTS:
            with self.span("cli.reject"):
                results[label] = self._invoke(argv(d))
        return results

    def _fresh_dir(self, tag):
        d = os.path.join(self.scratch, tag)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d

    def warm_up(self):
        d = self._fresh_dir("warm")
        self.session(d, 1, 30, "20,40", "40", 20)
        shutil.rmtree(d)

    def run_round(self, r):
        d = self._fresh_dir(f"s{r}")
        self.last = (d, derive(self.seed, r), self.session(d, derive(self.seed, r), self.n_units,
                                                           "50,100,200", "100,200", 100))
        return 1

    def settle_round(self):
        from dyadreg.dgp import load_dataset, simulate

        d, seed, results = self.last
        attempted, failed = len(results), 0
        for label, argv, out in REJECTS:
            rc, err = results[label]
            if rc != 2 or "Traceback" in err or os.path.exists(f"{d}/{out}") or os.path.exists(f"{d}/{out}.tmp"):
                failed += 1
        for op in ("simulate", "estimate", "two-point", "fano"):
            if results[op][0] != 0:
                self.fail(f"{op} failed: {results[op]}")
        if self.problems:
            return attempted, failed
        self.dataset_bytes.append(sum(os.path.getsize(f"{d}/{f}") for f in ("d.csv", "d.units.csv",
                                                                          "d.manifest.json")))
        loaded, _ = load_dataset(f"{d}/d.csv")
        direct = simulate(self.spec, self.n_units, seed)
        if loaded.x.tobytes() != direct.x.tobytes() or loaded.y.tobytes() != direct.y.tobytes():
            self.fail("the reloaded dataset is not bit-identical to the simulated one")
        self._check_estimate(f"{d}/est.csv", direct)
        for variant in ("two-point", "fano"):
            with open(f"{d}/{variant}.json") as fh:
                for rep in json.load(fh)["reports"]:
                    if not (rep["separation"]["passed"] and rep["holder_pass"] and rep["kl_within_bound"]
                            and rep["woodbury_max_gap"] < 1e-8):
                        self.fail(f"minimax {variant} report at N={rep['n_units']} fails a check: {rep}")
        shutil.rmtree(d)
        return attempted, failed

    def _check_estimate(self, path, data):
        with open(path) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        h = reference.uniform_bandwidth(1.0, 2.0, 1, self.n_units)
        g_ref, f_ref, def_ref = reference.nw(data.x, data.y, "gaussian", h, self.ref_grid)
        grid = np.array([[float(c) for c in row[:2]] for row in rows])
        f = np.array([float(row[2]) for row in rows])
        defined = np.array([row[4] == "1" for row in rows])
        g = np.array([float(row[3]) if row[4] == "1" else np.nan for row in rows])
        if not (np.array_equal(grid, self.ref_grid) and np.array_equal(defined, def_ref)
                and _close(f, f_ref) and _close(g[defined], g_ref[defined])):
            self.fail("estimate CSV disagrees with the reference")

    def check(self):
        self.determinism_check()


WORKLOADS = {w.name: w for w in (RatePointwise, RateSupnormD2, Dominance, CliSession)}
