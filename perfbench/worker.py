"""One benchmark process: set up a workload, time whole rounds, check outputs.

Imported by run.py in a fresh interpreter (`--role setup` or
`--role measure`); the environment, including the BLAS thread pin, comes
from the parent.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import sys
import time


def _rounds(wl, seconds: float, first: int, settle=contextlib.nullcontext):
    """Whole rounds until about `seconds` of timed work; a further round
    starts only if it is expected to end within half a round of the limit.
    Each round is settled (checked, cleared) outside the clock, inside
    `settle()`. Returns (per-round rates, units, attempted, failed, next
    round index)."""
    rates, units, attempted, failed, measured, r = [], 0, 0, 0, 0.0, first
    while not rates or measured + 0.5 * measured / len(rates) < seconds:
        t = time.perf_counter()
        done = wl.run_round(r)
        dt = time.perf_counter() - t
        measured += dt
        rates.append(done / dt)
        with settle():
            a, f = wl.settle_round()
        units, attempted, failed, r = units + done, attempted + a, failed + f, r + 1
    return rates, units, attempted, failed, r


def run(role: str, name: str, seed: int, seconds: int, trace: int, out: str) -> dict:
    scratch = os.path.abspath(os.path.join(out, "scratch", f"{name}-{os.getpid()}"))
    t0 = time.perf_counter()
    import dyadreg  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads

    tracer = None
    if trace:
        from spans import Tracer

        import dyadreg.cli  # noqa: F401  (bound before patching, so its names get patched too)

        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[name](seed, scratch, contextlib.nullcontext)
    if tracer:
        tracer.uninstall()
        setup_make_kernel = tracer.durations().get("kernels.make_kernel", [])
        tracer.spans.clear()
    wl.warm_up()
    setup_s = time.perf_counter() - t0
    if role == "setup":
        shutil.rmtree(scratch, ignore_errors=True)
        return {"setup_s": setup_s}

    if tracer:
        # untraced rounds first, then traced ones: their rates give the overhead
        untraced, _, attempted, failed, r = _rounds(wl, seconds / 2.0, 0)
        tracer.install()
        wl.span = tracer.span
        rates, units, a, f, r = _rounds(wl, seconds / 2.0, r, tracer.paused)
        tracer.uninstall()
        wl.span = contextlib.nullcontext
        attempted, failed = attempted + a, failed + f
    else:
        rates, units, attempted, failed, r = _rounds(wl, seconds, 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_s": setup_s, "attempted": attempted, "failed": failed, "round_rates": rates,
              "reps_per_s": statistics.median(rates), "peak_rss_mb": peak_rss_mb}
    if tracer:
        import layers

        result["layers"] = layers.metrics(tracer, units, import_s, setup_make_kernel,
                                          layers.memory_probe(wl), statistics.median(untraced),
                                          statistics.median(rates), getattr(wl, "dataset_bytes", []))
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        tracer.write(os.path.join(out, "traces", f"{name}-seed{seed}.json"),
                     {"workload": name, "seed": seed, "layers": result["layers"],
                      "untraced_reps_per_s": untraced, "traced_reps_per_s": rates})
    wl.check()
    shutil.rmtree(scratch, ignore_errors=True)
    result["problems"], result["notes"] = wl.problems, wl.notes
    result["correct"] = not wl.problems
    return result


if __name__ == "__main__":
    sys.exit("run through run.py")
