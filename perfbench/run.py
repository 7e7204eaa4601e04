"""Benchmark for dyadreg: four workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload rate-pointwise --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a checkout; the package is imported from ./src. Each
workload runs in fresh processes whose environment pins the BLAS to one
thread. With --trace 0 the last stdout line is a JSON object with
setup_s, reps_per_s and peak_rss_mb; with --trace 1 it holds the
per-layer metrics instead, and a span trace is written under .perfbench/.
See perfbench/README.md for the workloads, the checks and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench"
WORKLOAD_NAMES = ("rate-pointwise", "rate-supnorm-d2", "dominance", "cli-session")
SETUP_SAMPLES = 4        # fresh-interpreter set-ups per run, besides the measuring one
BLAS_THREADS = "1"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.abspath("src"), HERE, env.get("PYTHONPATH")) if p)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


def _child(args: list[str], seconds: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], env=_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=60 + 4 * seconds)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def orchestrate(workload: str, seed: int, seconds: int, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        _child(["--role", "setup", *common], 0)     # compiles bytecode and warms the file cache
        setups = [_child(["--role", "setup", *common], 0)["setup_s"] for _ in range(SETUP_SAMPLES)]
    res = _child(["--role", "measure", *common, "--seconds", str(seconds), "--trace", str(trace)], seconds)
    if trace:
        metrics = res["layers"]
    else:
        setups.append(res["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "reps_per_s": {"value": res["reps_per_s"], "unit": "1/s"},
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
    out = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
           "metrics": metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({**out, "workload": workload, "seed": seed, "seconds": seconds,
                   "setup_samples_s": setups, "round_rates": res["round_rates"], "problems": res["problems"],
                   "notes": res["notes"],
                   "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS}, fh, indent=2)
        fh.write("\n")
    for problem in res["problems"]:
        print(f"check failed: {problem}")
    return out


def run_all(seed: int, seconds: int, trace: int) -> dict:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name:16s} correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "dyadreg", "__init__.py")):
        print("run.py: no src/dyadreg here; run from the root of a dyadreg checkout", file=sys.stderr)
        return 2
    if args.role:
        import worker

        result = worker.run(args.role, args.workload, args.seed, args.seconds, args.trace, OUT)
        print(json.dumps(result))
        return 0
    t0 = time.perf_counter()
    if args.workload == "all":
        out = run_all(args.seed, args.seconds, args.trace)
    else:
        out = orchestrate(args.workload, args.seed, args.seconds, args.trace)
    print(f"wall {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
