import hashlib
import io
import json
import os
import shutil

import numpy as np
import pytest
import scipy

from conftest import replace_cell
from dyadreg import dgp
from dyadreg.cli import _write_estimate, main
from dyadreg.dgp import axes_grid, load_dataset, make_dgp, simulate
from dyadreg.estimator import BandwidthRule, NwResult, bandwidth, nw_estimate
from dyadreg.kernels import make_kernel


def test_simulate_writes_dataset_and_manifest(tmp_path):
    out = str(tmp_path / "d.csv")
    rc = main(["simulate", "--n", "20", "--dgp", "theorem1", "--g", "sin_additive",
               "--seed", "7", "--out", out])
    assert rc == 0
    assert os.path.exists(out)
    assert os.path.exists(str(tmp_path / "d.units.csv"))
    assert os.path.exists(str(tmp_path / "d.manifest.json"))
    data, manifest = load_dataset(out)
    assert data.n_units == 20
    assert manifest["meta"]["seed"] == 7
    # identical to the in-memory pipeline
    direct = simulate(make_dgp("theorem1", "sin_additive"), 20, 7)
    assert np.array_equal(data.y, direct.y, equal_nan=True)


def test_roundtrip_estimate_matches_in_memory(tmp_path):
    out = str(tmp_path / "d.csv")
    est = str(tmp_path / "est.csv")
    assert main(["simulate", "--n", "25", "--seed", "3", "--out", out]) == 0
    rc = main(["estimate", "--data", out, "--kernel", "gaussian",
               "--bandwidth", "uniform-optimal:1.0", "--grid", "0.2:0.8:4", "--out", est])
    assert rc == 0
    data = simulate(make_dgp("theorem1", "sin_additive"), 25, 3)
    kernel = make_kernel("gaussian", 2)
    h = bandwidth(BandwidthRule("uniform-optimal", 1.0, 2.0, 1), 25)
    axis = np.linspace(0.2, 0.8, 4)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([a.ravel(), b.ravel()], axis=-1)
    expect = nw_estimate(data, kernel, h, grid)
    with open(est) as fh:
        rows = [line.split(",") for line in fh.read().strip().splitlines()[1:]]
    assert len(rows) == 16
    for row, g_exp, f_exp, d_exp in zip(rows, expect.g_hat, expect.f_hat, expect.defined):
        assert float(row[2]) == pytest.approx(f_exp, rel=1e-12, abs=0)
        if d_exp:
            assert float(row[3]) == pytest.approx(g_exp, rel=1e-12, abs=0)
            assert row[4] == "1"
        else:
            assert row[3] == "" and row[4] == "0"


@pytest.mark.parametrize("steps", [(3, 4), (2, 3, 1, 4)])
def test_estimate_writer_matches_cell_by_cell_formatting(steps):
    """The writer's blocks of rows are byte for byte the rows formatted one
    cell at a time, with a block all defined, mixed blocks and a -0.0."""
    rng = np.random.default_rng(len(steps))
    axes = [np.sort(rng.uniform(-1, 1, s)) * 10.0 ** rng.integers(-9, 9) for s in steps]
    axes[-1][0] = -0.0
    grid = axes_grid(axes)
    defined = rng.random(len(grid)) < 0.6
    defined[:steps[-1]] = True
    res = NwResult(grid=grid, g_hat=np.where(defined, rng.normal(size=len(grid)), np.nan),
                   f_hat=rng.uniform(0, 1e-3, len(grid)), defined=defined)
    buf = io.StringIO()
    _write_estimate(buf, axes, res)
    lines = [",".join([f"w_{c + 1}" for c in range(len(steps))] + ["f_hat", "g_hat", "defined"])]
    for w, f, g, ok in zip(grid, res.f_hat, res.g_hat, res.defined):
        cells = [repr(float(v)) for v in w] + [repr(float(f))]
        lines.append(",".join(cells + ([repr(float(g)), "1"] if ok else ["", "0"])))
    assert buf.getvalue() == "\n".join(lines) + "\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_config_error_exits_2(tmp_path):
    out = str(tmp_path / "d.csv")
    assert main(["simulate", "--n", "10", "--seed", "1", "--out", out]) == 0
    est = str(tmp_path / "est.csv")
    rc = main(["estimate", "--data", out, "--kernel", "sinc",
               "--grid", "0:1:3", "--out", est])
    assert rc == 2
    assert not os.path.exists(est)


_RATES_BASE = "n_list = 10,20,40,80\nreps = 50\n"
_BAD_RATES_CONFIGS = {
    "d_x": "dgp.d_x = 1.5\n" + _RATES_BASE + "w0 = 0.5,0.5\n",
    "n_list": "n_list = 2,4,8,16\nreps = 50\nw0 = 0.5,0.5\n",
    "beta": _RATES_BASE + "w0 = 0.5,0.5\ndgp.beta = -0.5\n",
    "c0": _RATES_BASE + "w0 = 0.5,0.5\nbandwidth.c0 = nan\n",
    "graphon": _RATES_BASE + "w0 = 0.5,0.5\ndgp.kind = sigmoid_graphon\n",
    "w0": _RATES_BASE + "w0 = 0.5\n",
    "steps": _RATES_BASE + "mode = sup-norm\ngrid.steps = 0\n",
    "steps-d_x-2": _RATES_BASE + "dgp.d_x = 2\nmode = sup-norm\ngrid.steps = 100000\n",
    "no-dir": _RATES_BASE + "w0 = 0.5,0.5\nout.prefix = {d}/nodir/r\n",
    "seed": _RATES_BASE + "w0 = 0.5,0.5\nseed = -3\n",
    "c0-overflow": _RATES_BASE + "w0 = 0.5,0.5\nbandwidth.c0 = 1e-300\n",
    "dgp-l": _RATES_BASE + "w0 = 0.5,0.5\ndgp.l = 5.0\n",
}
_EST = ["estimate", "--data", "{d}/d.csv", "--out", "{d}/o.csv"]
# dataset name -> (file suffix, line, field, text): a copy of d.csv with one cell replaced
_BAD_CELLS = {"nan-y": (".csv", 5, 2, "nan"), "abc-y": (".csv", 3, 2, "abc"),
              "nan-x": (".units.csv", 4, 1, "nan")}
# dataset name -> manifest entries: a copy of d.csv whose manifest states them
_BAD_MANIFESTS = {"bool-d_x": {"d_x": True}}
_DIAG = ["diagnose", "--n", "50,100", "--out", "{d}/o.csv"]
_MINIMAX = ["minimax", "--n", "50", "--reps", "2", "--out", "{d}/o.json"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "1", "--seed", "1", "--out", "{d}/o.csv"],
    ["simulate", "--n", "20", "--g", "bogus", "--seed", "1", "--out", "{d}/o.csv"],
    ["diagnose", "--n", "50,100", "--reps", "10", "--w", "0.5,0.5", "--out", "{d}/o.csv"],
    ["estimate", "--data", "{d}/d.csv", "--bandwidth", "fixed:-1", "--grid", "0.2:0.8:9",
     "--out", "{d}/o.csv"],
    ["estimate", "--data", "{d}/missing.csv", "--grid", "0.2:0.8:9", "--out", "{d}/o.csv"],
    ["rates", "--config", "{d}/d_x.cfg"],
    ["rates", "--config", "{d}/n_list.cfg"],
    ["minimax", "--n", "1", "--out", "{d}/o.json"],
    ["minimax", "--n", "50", "--reps", "1", "--out", "{d}/o.json"],
    ["simulate", "--n", "20", "--d-x", "0", "--seed", "1", "--out", "{d}/o.csv"],
    ["diagnose", "--d-x", "0", "--n", "50,100", "--w", "0.5,0.5", "--out", "{d}/o.csv"],
    _MINIMAX + ["--d-x", "0"],
    _MINIMAX + ["--beta", "0"],
    _MINIMAX + ["--beta", "5"],
    _MINIMAX + ["--l", "0"],
    _MINIMAX + ["--l", "-1"],
    _MINIMAX + ["--c0", "-1"],
    _EST + ["--beta", "-0.5", "--grid", "0.2:0.8:9"],
    _EST + ["--bandwidth", "fixed:nan", "--grid", "0.2:0.8:9"],
    _EST + ["--bandwidth", "pointwise-optimal:inf", "--grid", "0.2:0.8:9"],
    _EST + ["--grid", "nan:0.8:3"],
    _EST + ["--grid", "0:1:100000"],
    ["estimate", "--data", "{d}/d2.csv", "--grid", "0:1:100000", "--out", "{d}/o.csv"],
    ["estimate", "--data", "{d}/d2.csv", "--grid", "0:1:1000", "--out", "{d}/o.csv"],
    _DIAG + ["--beta", "-0.5", "--w", "0.5,0.5"],
    _DIAG + ["--w", "nan,0.5"],
    ["rates", "--config", "{d}/beta.cfg"],
    ["rates", "--config", "{d}/c0.cfg"],
    ["rates", "--config", "{d}/graphon.cfg"],
    ["rates", "--config", "{d}/w0.cfg"],
    ["rates", "--config", "{d}/steps.cfg"],
    ["rates", "--config", "{d}/steps-d_x-2.cfg"],
    ["simulate", "--n", "20", "--seed", "1", "--out", "{d}/nodir/o.csv"],
    _EST + ["--grid", "0.2:0.8:9", "--out", "{d}/nodir/o.csv"],
    _MINIMAX + ["--out", "{d}/nodir/o.json"],
    _DIAG + ["--w", "0.5,0.5", "--out", "{d}/nodir/o.csv"],
    ["rates", "--config", "{d}/no-dir.cfg"],
    ["rates", "--config", "{d}"],
    ["rates", "--config", "{d}/latin1.cfg"],
    ["simulate", "--n", "20", "--seed", "1", "--out", "{d}"],
    *[["estimate", "--data", f"{{d}}/{name}.csv", "--grid", "0.2:0.8:3", "--out", "{d}/o.csv"]
      for name in [*_BAD_CELLS, *_BAD_MANIFESTS]],
    ["simulate", "--n", "20", "--seed", "-1", "--out", "{d}/o.csv"],
    _DIAG + ["--seed", "-2", "--w", "0.5,0.5"],
    _MINIMAX + ["--seed", "-5"],
    ["rates", "--config", "{d}/seed.cfg"],
    _EST + ["--bandwidth", "fixed:1e-160", "--grid", "0.2:0.8:9"],
    _DIAG + ["--bandwidth", "fixed:1e-300", "--w", "0.5,0.5"],
    ["rates", "--config", "{d}/c0-overflow.cfg"],
    ["rates", "--config", "{d}/dgp-l.cfg"],
    _MINIMAX + ["--c0", "1e200", "--reps", "10"],
    _MINIMAX + ["--l", "1e300", "--reps", "10"],
    ["minimax", "--variant", "fano", "--l", "1e300", "--c0", "0.5", "--n", "100", "--reps", "10",
     "--out", "{d}/o.json"],
    _MINIMAX + ["--l", "1e100", "--reps", "10"],
    _MINIMAX + ["--l", "1e150", "--c0", "1e30", "--reps", "10"],
    _MINIMAX + ["--l", "1e-320", "--reps", "10"],
    ["minimax", "--variant", "fano", "--c0", "0.5", "--l", "1e-310", "--n", "100", "--reps", "10",
     "--out", "{d}/o.json"],
], ids=["simulate-n-1", "simulate-g-bogus", "diagnose-reps-10", "estimate-bandwidth-negative",
        "estimate-missing-file", "rates-d_x-1.5", "rates-n_list-2", "minimax-n-1", "minimax-reps-1",
        "simulate-d-x-0", "diagnose-d-x-0",
        "minimax-d-x-0", "minimax-beta-0", "minimax-beta-5", "minimax-l-0", "minimax-l-negative",
        "minimax-c0-negative", "estimate-beta-negative", "estimate-bandwidth-nan",
        "estimate-bandwidth-inf", "estimate-grid-nan", "estimate-grid-10^10-points",
        "estimate-d_x-2-grid-10^20-points", "estimate-d_x-2-grid-10^12-points",
        "diagnose-beta-negative", "diagnose-w-nan",
        "rates-beta-negative", "rates-c0-nan", "rates-sigmoid-graphon", "rates-w0-short",
        "rates-grid-steps-0", "rates-d_x-2-grid-steps-100000", "simulate-out-no-dir",
        "estimate-out-no-dir", "minimax-out-no-dir",
        "diagnose-out-no-dir", "rates-prefix-no-dir", "rates-config-directory",
        "rates-config-not-utf8", "simulate-out-is-directory",
        *[f"estimate-{name}" for name in [*_BAD_CELLS, *_BAD_MANIFESTS]],
        "simulate-seed-negative", "diagnose-seed-negative", "minimax-seed-negative",
        "rates-seed-negative", "estimate-bandwidth-overflow", "diagnose-bandwidth-overflow",
        "rates-c0-overflow", "rates-dgp-l", "minimax-c0-overflow", "minimax-l-overflow",
        "minimax-fano-l-overflow", "minimax-kl-overflow", "minimax-bound-overflow",
        "minimax-l-underflow", "minimax-fano-l-underflow"])
def test_bad_input_exits_2_with_one_line_and_no_output(tmp_path, capsys, argv):
    d = str(tmp_path)
    assert main(["simulate", "--n", "10", "--seed", "1", "--out", f"{d}/d.csv"]) == 0
    assert main(["simulate", "--n", "10", "--d-x", "2", "--seed", "1", "--out", f"{d}/d2.csv"]) == 0
    for name, body in _BAD_RATES_CONFIGS.items():
        body += "" if "out.prefix" in body else "out.prefix = {d}/r\n"
        (tmp_path / f"{name}.cfg").write_text(body.format(d=d))
    # a valid config but for one Latin-1 byte in a comment
    latin1 = "# caf\xe9\n" + _RATES_BASE + f"w0 = 0.5,0.5\nout.prefix = {d}/r\n"
    (tmp_path / "latin1.cfg").write_bytes(latin1.encode("latin-1"))
    for name, (suffix, line, field, text) in _BAD_CELLS.items():
        for part in (".csv", ".units.csv", ".manifest.json"):
            shutil.copy(tmp_path / f"d{part}", tmp_path / f"{name}{part}")
        replace_cell(tmp_path / f"{name}{suffix}", line, field, text)
    for name, entries in _BAD_MANIFESTS.items():
        for part in (".csv", ".units.csv"):
            shutil.copy(tmp_path / f"d{part}", tmp_path / f"{name}{part}")
        manifest = json.loads((tmp_path / "d.manifest.json").read_text())
        (tmp_path / f"{name}.manifest.json").write_text(json.dumps({**manifest, **entries}))
    before = sorted(os.listdir(d))
    capsys.readouterr()
    assert main([a.format(d=d) for a in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert sorted(os.listdir(d)) == before


@pytest.mark.parametrize("flag", [["--bandwidth", "fixed:-1"], ["--grid", "0.8:0.2:9"],
                                  ["--kernel", "sinc"]], ids=["bandwidth", "grid", "kernel"])
def test_estimate_checks_flags_before_loading(tmp_path, monkeypatch, flag):
    d = str(tmp_path)
    assert main(["simulate", "--n", "10", "--seed", "1", "--out", f"{d}/d.csv"]) == 0

    def refuse(path):
        raise AssertionError("the dataset was loaded before the flags were checked")

    monkeypatch.setattr("dyadreg.cli.load_dataset", refuse)
    argv = ["estimate", "--data", f"{d}/d.csv", "--grid", "0.2:0.8:9", "--out", f"{d}/o.csv"]
    assert main(argv + flag) == 2
    assert not os.path.exists(f"{d}/o.csv")


def test_truncated_dataset_refused(tmp_path):
    out = str(tmp_path / "d.csv")
    assert main(["simulate", "--n", "20", "--seed", "1", "--out", out]) == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    with open(out, "w") as fh:
        fh.write("\n".join(lines[:-50]) + "\n")
    with pytest.raises(ValueError, match="one row for each"):
        load_dataset(out)
    est = str(tmp_path / "est.csv")
    assert main(["estimate", "--data", out, "--grid", "0.2:0.8:3", "--out", est]) == 2
    assert not os.path.exists(est)


def test_rates_config_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("n_list = 10,20,40,80\nreps = 50\nout.prefix = x\nbogus.key = 1\nw0 = 0.5,0.5\n")
    rc = main(["rates", "--config", str(cfg)])
    assert rc == 2


def test_rates_missing_key_exits_2(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("reps = 50\nw0 = 0.5,0.5\nout.prefix = x\n")
    assert main(["rates", "--config", str(cfg)]) == 2


def test_rates_bad_values_exit_2(tmp_path):
    base = "n_list = 10,20,40,80\nreps = 50\nw0 = 0.5,0.5\nout.prefix = x\n"
    cfg = tmp_path / "k.cfg"
    cfg.write_text(base + "kernel = sinc\n")
    assert main(["rates", "--config", str(cfg)]) == 2
    cfg2 = tmp_path / "m.cfg"
    cfg2.write_text(base + "bandwidth.mode = magic\n")
    assert main(["rates", "--config", str(cfg2)]) == 2
    cfg3 = tmp_path / "g.cfg"
    cfg3.write_text(base + "dgp.g = nope\n")
    assert main(["rates", "--config", str(cfg3)]) == 2
    cfg4 = tmp_path / "missing.cfg"
    assert main(["rates", "--config", str(cfg4)]) == 2


def test_rates_outputs_and_determinism(tmp_path):
    prefix1 = str(tmp_path / "a")
    prefix2 = str(tmp_path / "b")
    base = (
        "dgp.kind = theorem1\n"
        "dgp.g = sin_additive\n"
        "kernel = epanechnikov\n"
        "bandwidth.mode = pointwise-optimal\n"
        "bandwidth.c0 = 0.8\n"
        "mode = pointwise\n"
        "w0 = 0.5,0.5\n"
        "n_list = 20,40,80,160\n"
        "reps = 50\n"
        "seed = 5\n"
    )
    cfg1 = tmp_path / "r1.cfg"
    cfg1.write_text(base + f"out.prefix = {prefix1}\n")
    cfg2 = tmp_path / "r2.cfg"
    cfg2.write_text(base + f"out.prefix = {prefix2}\n")
    assert main(["rates", "--config", str(cfg1)]) == 0
    assert main(["rates", "--config", str(cfg2)]) == 0
    for ext in (".csv", ".fit.json", ".plot.dat"):
        with open(prefix1 + ext, "rb") as f1, open(prefix2 + ext, "rb") as f2:
            b1, b2 = f1.read(), f2.read()
        assert b1 == b2
        assert len(b1) > 0


def test_rates_with_zero_errors_writes_all_outputs(tmp_path, capsys):
    # every estimate is exact, so every error is 0 and has no logarithm
    prefix = str(tmp_path / "z")
    cfg = tmp_path / "z.cfg"
    cfg.write_text("dgp.kind = noiseless\ndgp.g = zero\nmode = pointwise\nw0 = 0.5,0.5\n"
                   f"n_list = 10,12,14,16\nreps = 50\nout.prefix = {prefix}\n")
    assert main(["rates", "--config", str(cfg)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(prefix + ".fit.json") as fh:
        assert json.load(fh)["degenerate"] is True
    assert os.path.exists(prefix + ".csv")
    with open(prefix + ".plot.dat") as fh:
        plot = fh.read()
    assert "inf" not in plot and "nan" not in plot


def test_minimax_report(tmp_path):
    out = str(tmp_path / "mm.json")
    rc = main(["minimax", "--variant", "two-point", "--beta", "2", "--c0", "1",
               "--n", "10,50", "--reps", "60", "--seed", "1", "--out", out])
    assert rc == 0
    with open(out) as fh:
        report = json.load(fh)
    assert len(report["reports"]) == 2
    for body in report["reports"]:
        assert body["kl_mean"] <= body["bound"] + 3 * body["kl_se"]
        assert body["separation"]["passed"]
        assert body["holder_pass"]
        assert body["woodbury_max_gap"] <= 1e-8
        assert body["kl_within_bound"]


@pytest.mark.parametrize("argv, digest", [
    (["--variant", "two-point", "--n", "20,40", "--reps", "20", "--seed", "1"],
     "e596aeb4f9fb5a60713b6ba61e0f45dc897f97a7ce6c6cd44d20972238dbe944"),
    (["--variant", "fano", "--c0", "0.5", "--n", "40,60", "--reps", "20", "--seed", "1"],
     "545a89d02f06bdc542a046502992dac809d62d25a0eef55160701eaab3f57d50"),
], ids=["two-point", "fano"])
def test_minimax_report_bytes_are_pinned(tmp_path, argv, digest):
    """The seed contract on the Woodbury check's path: the report's bytes, as
    scipy's conjugate gradient gave them (x86-64, numpy with OpenBLAS)."""
    out = str(tmp_path / "mm.json")
    assert main(["minimax", *argv, "--out", out]) == 0
    with open(out, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_minimax_tiny_l_still_runs(tmp_path):
    # hypotheses scaled by --l 1e-100 are still normal floats: only an underflowing --l is refused
    out = str(tmp_path / "mm.json")
    assert main(["minimax", "--l", "1e-100", "--n", "50", "--reps", "10", "--out", out]) == 0
    with open(out) as fh:
        assert json.load(fh)["reports"][0]["separation"]["passed"]


def test_minimax_builds_the_kernel_once(tmp_path, monkeypatch):
    import dyadreg.minimax

    built = []
    make_kernel_real = dyadreg.minimax.make_kernel

    def counting(*args, **kwargs):
        built.append(args)
        return make_kernel_real(*args, **kwargs)

    monkeypatch.setattr(dyadreg.minimax, "make_kernel", counting)
    out = str(tmp_path / "mm.json")
    assert main(["minimax", "--n", "50,100,200", "--reps", "2", "--out", out]) == 0
    assert len(built) == 1


def test_minimax_refusal_exits_3_without_partial_output(tmp_path):
    out = str(tmp_path / "mm.json")
    rc = main(["minimax", "--variant", "two-point", "--c0", "0.05",
               "--n", "10", "--reps", "10", "--seed", "1", "--out", out])
    assert rc == 3
    assert not os.path.exists(out)


def test_fano_packing_refusal_exits_3(tmp_path):
    out = str(tmp_path / "mm.json")
    rc = main(["minimax", "--variant", "fano", "--c0", "1.0",
               "--n", "50", "--reps", "10", "--seed", "1", "--out", out])
    assert rc == 3
    assert not os.path.exists(out)


def test_diagnose_writes_table(tmp_path):
    out = str(tmp_path / "dom.csv")
    rc = main(["diagnose", "--n", "20,40", "--reps", "50", "--w", "0.5,0.5",
               "--bandwidth", "uniform-optimal:1.0", "--seed", "2", "--out", out])
    assert rc == 0
    with open(out) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "n,var_t1,var_t2,ratio,n_excluded"
    assert len(lines) == 3


def test_manifest_flag_writes_run_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = str(tmp_path / "d.csv")
    rc = main(["--manifest", "simulate", "--n", "10", "--seed", "4", "--out", out])
    assert rc == 0
    with open(out + ".run.json") as fh:
        man = json.load(fh)
    assert man["subcommand"] == "simulate"
    assert man["seed"] == 4
    assert len(man["config_hash"]) == 64
    assert any(p.endswith("d.csv") for p in man["outputs"])
    assert man["replicate_threads"] == dgp._THREADS >= 1
    assert man["nproc"] == os.cpu_count()
    assert (man["numpy_version"], man["scipy_version"]) == (np.__version__, scipy.__version__)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (man["blas_name"], man["blas_version"]) == (blas["name"], blas["version"])
    assert man["blas_thread_env"] == {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": None,
                                      "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    # the run record sits beside the outputs and leaves their bytes as they are
    assert main(["simulate", "--n", "10", "--seed", "4", "--out", str(tmp_path / "e.csv")]) == 0
    for ext in (".csv", ".units.csv"):
        assert (tmp_path / f"d{ext}").read_bytes() == (tmp_path / f"e{ext}").read_bytes()


def test_rates_and_diagnose_outputs_do_not_depend_on_replicate_threads(tmp_path, monkeypatch):
    body = ("dgp.kind = theorem1\ndgp.g = sin_additive\nkernel = epanechnikov\n"
            "bandwidth.mode = uniform-optimal\nbandwidth.c0 = 0.8\nmode = sup-norm\n"
            "grid.steps = 5\nn_list = 20,40,80,160\nreps = 50\nseed = 5\n")
    pointwise = ("dgp.kind = theorem1\nkernel = gaussian\n"
                 "bandwidth.mode = pointwise-optimal\nbandwidth.c0 = 0.5\nmode = pointwise\n"
                 "w0 = 0.4,0.6\nn_list = 20,40,80,160\nreps = 50\nseed = 6\n")
    outputs = []
    for tag, threads in (("one", 1), ("default", dgp._THREADS), ("three", 3)):
        monkeypatch.setattr(dgp, "_THREADS", threads)
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(body + f"out.prefix = {tmp_path / tag}\n")
        assert main(["rates", "--config", str(cfg)]) == 0
        for g in ("product", "sin_additive"):  # through simulate, and streamed
            cfg.write_text(f"dgp.g = {g}\n" + pointwise + f"out.prefix = {tmp_path / tag}.{g}\n")
            assert main(["rates", "--config", str(cfg)]) == 0
        assert main(["diagnose", "--n", "20,60", "--reps", "50", "--w", "0.5,0.5", "--seed", "2",
                     "--out", str(tmp_path / f"{tag}.dom.csv")]) == 0
        assert main(["diagnose", "--dgp", "sigmoid_graphon", "--n", "20,60", "--reps", "50",
                     "--w", "0.5,0.5", "--seed", "2", "--out", str(tmp_path / f"{tag}.graphon.csv")]) == 0
        outputs.append([(tmp_path / f"{tag}{ext}").read_bytes()
                        for ext in (".csv", ".fit.json", ".plot.dat", ".dom.csv", ".graphon.csv",
                                    *(f".{g}{suffix}" for g in ("product", "sin_additive")
                                      for suffix in (".csv", ".fit.json", ".plot.dat")))])
    assert outputs[0] == outputs[1] == outputs[2]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
