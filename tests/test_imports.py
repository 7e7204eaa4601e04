"""Which parts of scipy a process loads. `import dyadreg` and every Monte Carlo
path of a uniform-law additive DGP (streamed rate studies on one point or a
grid, streamed dominance tables, simulate, CSV save and load, nw_estimate)
run on numpy alone, as do a CLI session's simulate, estimate and minimax and
the minimax Woodbury check; the truncnorm law and the threshold graphon import
what they need when they are built, and the CLI's --manifest run record
imports scipy for its version."""

import json
import os
import subprocess
import sys

import dyadreg

_SCRIPT = r"""
import json, os, sys
import numpy as np

def scipy_parts():
    return sorted(m for m in sys.modules if m.split(".")[:2] in
                  (["scipy", "linalg"], ["scipy", "special"], ["scipy", "sparse"]))

loaded = {}
import dyadreg, dyadreg.cli
loaded["import"] = scipy_parts()

from dyadreg.decomposition import variance_dominance
from dyadreg.dgp import load_dataset, make_dgp, save_dataset, simulate
from dyadreg.estimator import BandwidthRule, nw_estimate
from dyadreg.kernels import make_kernel
from dyadreg.minimax import build_selection, woodbury_sides
from dyadreg.rates import RateExperiment, run_rate_experiment

rule = BandwidthRule("pointwise-optimal", 0.8)
sin1, sin2 = make_dgp("theorem1", "sin_additive"), make_dgp("theorem1", "sin_additive", d_x=2)
run_rate_experiment(RateExperiment(dgp=sin1, kernel_id="gaussian", rule=rule, mode="pointwise",
                                   n_list=(5, 6, 7, 8), reps=50, seed=1, w0=(0.5, 0.5)))
run_rate_experiment(RateExperiment(dgp=sin2, kernel_id="gaussian", rule=BandwidthRule("fixed", 0.3),
                                   mode="sup-norm", n_list=(5, 6, 7, 8), reps=50, seed=1,
                                   grid_steps=7))
variance_dominance(sin1, make_kernel("gaussian", 2), rule, (5, 6), 50, (0.5, 0.5), 1)
data = simulate(sin1, 30, 1)
save_dataset(data, os.path.join(sys.argv[1], "d.csv"))
data, _ = load_dataset(os.path.join(sys.argv[1], "d.csv"))
nw_estimate(data, make_kernel("gaussian", 2), 0.3, [[0.5, 0.5], [0.2, 0.8]])
loaded["monte_carlo"] = scipy_parts()

simulate(make_dgp("theorem1", "sin_additive", law="truncnorm"), 20, 1)
loaded["truncnorm"] = scipy_parts()
graphon = make_dgp("threshold_graphon")
simulate(graphon, 20, 1)
loaded["threshold_g"] = float(graphon.g(np.zeros(1), np.zeros(1)))
sel = build_selection(6)
lhs, rhs = woodbury_sides(sel, np.arange(6.0))
loaded["woodbury_gap"] = abs(lhs - rhs)
loaded["woodbury"] = scipy_parts()
print(json.dumps(loaded))
"""


def _run_fresh(script, tmp_path):
    """script's JSON output from a fresh interpreter, with tmp_path as argv[1]."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dyadreg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_scipy_loads_only_for_the_features_that_need_it(tmp_path):
    loaded = _run_fresh(_SCRIPT, tmp_path)
    assert loaded["import"] == []
    assert loaded["monte_carlo"] == []
    assert "scipy.special" in loaded["truncnorm"]
    assert loaded["threshold_g"] == 0.5
    assert loaded["woodbury_gap"] < 1e-8
    assert [m for m in loaded["woodbury"] if m.split(".")[:2] == ["scipy", "sparse"]] == []


_CLI_SCRIPT = r"""
import json, os, sys
from dyadreg.cli import main

d = sys.argv[1]
runs = [["simulate", "--n", "30", "--seed", "1", "--out", os.path.join(d, "d.csv")],
        ["estimate", "--data", os.path.join(d, "d.csv"), "--grid", "0.2:0.8:3,0.2:0.8:3",
         "--out", os.path.join(d, "est.csv")],
        ["minimax", "--variant", "two-point", "--n", "20,40", "--reps", "10", "--out", os.path.join(d, "two.json")],
        ["minimax", "--variant", "fano", "--c0", "0.5", "--n", "40", "--reps", "10",
         "--out", os.path.join(d, "fano.json")]]
codes = [main(argv) for argv in runs]
scipy_before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes.append(main(["--manifest", "minimax", "--n", "20", "--reps", "10", "--out", os.path.join(d, "man.json")]))
import scipy
with open(os.path.join(d, "man.json.run.json")) as fh:
    recorded = json.load(fh)["scipy_version"]
print(json.dumps({"codes": codes, "scipy_before": scipy_before,
                  "recorded": recorded, "version": scipy.__version__}))
"""


def test_a_cli_session_loads_scipy_only_for_a_run_record(tmp_path):
    """simulate, estimate and both minimax variants of a uniform-law DGP run
    on numpy alone; --manifest imports scipy to record its version."""
    out = _run_fresh(_CLI_SCRIPT, tmp_path)
    assert out["codes"] == [0, 0, 0, 0, 0]
    assert out["scipy_before"] == []
    assert out["recorded"] == out["version"]


def test_importing_dyadreg_loads_no_thread_pool_or_secrets(tmp_path):
    """replicate imports concurrent.futures when it runs, and atomic_open
    names its temporary file from os.urandom, so an import, the CLI's too,
    loads neither module; a replicate run loads the pool. Recovering a bare
    product grid's axes, as a benchmark's warm-up does, loads no numpy.ma."""
    script = r"""
import json, sys
import dyadreg, dyadreg.cli
loaded = [m for m in ("concurrent.futures", "secrets") if m in sys.modules]
from dyadreg.dgp import make_dgp, replicate, simulate
from dyadreg.estimator import BandwidthRule, nw_estimate
from dyadreg.kernels import make_kernel
from dyadreg.rates import product_grid
nw_estimate(simulate(make_dgp("theorem1", d_x=2), 20, 1), make_kernel("epanechnikov", 4), 0.5,
            product_grid(0.2, 0.8, 7, 4))
loaded += [m for m in ("concurrent.futures", "numpy.ma") if m in sys.modules]  # numpy.random loads secrets
list(replicate(make_dgp("theorem1"), BandwidthRule("fixed", 0.3), (5,), 2, 1, lambda data, h: h))
print(json.dumps({"import": loaded, "pool": "concurrent.futures" in sys.modules}))
"""
    out = _run_fresh(script, tmp_path)
    assert out == {"import": [], "pool": True}
