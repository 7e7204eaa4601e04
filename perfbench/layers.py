"""Per-layer metrics of the traced run, derived from the recorded spans.

Every `_ms` metric is the mean wall time per call of the named function,
over the traced rounds (and, for make_kernel, the workload's construction
as well). A layer the workload never calls reads 0. The map from each
metric to the end-to-end metric it should move is in README.md.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

import reference

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "setup.import_s": "s",
    "kernels.make_kernel_ms": "ms",
    "dgp.simulate_ms": "ms",
    "dgp.simulate_latents_ms": "ms",
    "dgp.simulate_self_ms": "ms",
    "dgp.dataset_init_ms": "ms",
    "dgp.y_filled_calls_per_rep": "count",
    "dgp.y_filled_ms": "ms",
    "dgp.simulate_peak_alloc_mb": "MB",
    "dgp.save_dataset_ms": "ms",
    "dgp.load_dataset_ms": "ms",
    "dgp.dataset_bytes": "B",
    "estimator.nw_estimate_ms": "ms",
    "estimator.contraction_flops": "flop-computed",
    "estimator.nonzero_weight_share": "share",
    "decomposition.hoeffding_decompose_ms": "ms",
    "decomposition.hoeffding_peak_alloc_mb": "MB",
    "rates.driver_self_ms": "ms",
    "minimax.woodbury_sides_ms": "ms",
    "minimax.operator_applies": "count",
    "minimax.kl_two_point_ms": "ms",
    "minimax.fano_kl_average_ms": "ms",
    "minimax.holder_check_ms": "ms",
    "minimax.build_selection_ms": "ms",
    "cli.simulate_ms": "ms",
    "cli.estimate_ms": "ms",
    "cli.minimax_ms": "ms",
    "cli.reject_ms": "ms",
    "trace.overhead_pct": "%",
}

_MEAN_MS = {
    "dgp.simulate_ms": "dgp.simulate",
    "dgp.simulate_latents_ms": "dgp.simulate_latents",
    "dgp.dataset_init_ms": "dgp.dataset_init",
    "dgp.y_filled_ms": "dgp.y_filled",
    "dgp.save_dataset_ms": "dgp.save_dataset",
    "dgp.load_dataset_ms": "dgp.load_dataset",
    "estimator.nw_estimate_ms": "estimator.nw_estimate",
    "decomposition.hoeffding_decompose_ms": "decomposition.hoeffding_decompose",
    "minimax.woodbury_sides_ms": "minimax.woodbury_sides",
    "minimax.kl_two_point_ms": "minimax.kl_two_point",
    "minimax.fano_kl_average_ms": "minimax.fano_kl_average",
    "minimax.holder_check_ms": "minimax.holder_check",
    "minimax.build_selection_ms": "minimax.build_selection",
    "cli.simulate_ms": "cli.simulate",
    "cli.estimate_ms": "cli.estimate",
    "cli.minimax_ms": "cli.minimax",
    "cli.reject_ms": "cli.reject",
}


def _mean_ms(values) -> float:
    return 1000.0 * float(np.mean(values)) if len(values) else 0.0


def _nonzero_weight_share(args) -> float:
    """Share of (pair, grid point) kernel weights that are not zero, from the
    factor evaluated on the regressors of the largest nw_estimate call."""
    data, kernel, h, grid = args
    k = reference.FACTORS[kernel.family.split("-")[0]]
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    d = data.d_x
    a = np.prod(k((data.x[:, None, :] - grid[None, :, :d]) / h), axis=-1)
    b = np.prod(k((data.x[:, None, :] - grid[None, :, d:]) / h), axis=-1)
    return float(np.mean(np.count_nonzero(a, axis=0) * np.count_nonzero(b, axis=0)) / data.n_units**2)


def memory_probe(wl) -> dict:
    """tracemalloc peaks of one simulate (and, on dominance, one Hoeffding
    split) at the workload's largest N, taken apart from any timing."""
    from dyadreg.decomposition import hoeffding_decompose
    from dyadreg.dgp import simulate
    from dyadreg.estimator import bandwidth

    out = {"dgp.simulate_peak_alloc_mb": 0.0, "decomposition.hoeffding_peak_alloc_mb": 0.0}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        data = simulate(wl.spec, wl.n_max, 12345)
        out["dgp.simulate_peak_alloc_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        if wl.name == "dominance":
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            hoeffding_decompose(data, wl.kernel, bandwidth(wl.rule, wl.n_max), math.inf, wl.w)
            out["decomposition.hoeffding_peak_alloc_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    return out


def metrics(tracer, units: int, import_s: float, setup_make_kernel: list, probe: dict,
            untraced_rate: float, traced_rate: float, dataset_bytes: list) -> dict:
    dur = tracer.durations()
    vals = {name: _mean_ms(dur.get(span, [])) for name, span in _MEAN_MS.items()}
    vals["setup.import_s"] = import_s
    vals["kernels.make_kernel_ms"] = _mean_ms(setup_make_kernel + dur.get("kernels.make_kernel", []))

    sims = dur.get("dgp.simulate", [])
    inner = tracer.child_time("dgp.simulate", {"dgp.simulate_latents", "dgp.dataset_init"})
    vals["dgp.simulate_self_ms"] = _mean_ms([s - c for s, c in zip(sims, inner)])
    experiments = dur.get("rates.run_rate_experiment", [])
    inner = tracer.child_time("rates.run_rate_experiment", {"dgp.simulate", "estimator.nw_estimate"})
    vals["rates.driver_self_ms"] = _mean_ms([s - c for s, c in zip(experiments, inner)])

    vals["dgp.y_filled_calls_per_rep"] = len(dur.get("dgp.y_filled", [])) / units
    n_est = len(dur.get("estimator.nw_estimate", []))
    vals["estimator.contraction_flops"] = tracer.counts["estimator.contraction_flops"] / n_est if n_est else 0.0
    largest = tracer.calls.get("estimator.nw_estimate")
    vals["estimator.nonzero_weight_share"] = _nonzero_weight_share(largest) if largest else 0.0
    n_wood = len(dur.get("minimax.woodbury_sides", []))
    applies = len(dur.get("minimax.t_matvec", [])) + len(dur.get("minimax.t_rmatvec", []))
    vals["minimax.operator_applies"] = applies / n_wood if n_wood else 0.0
    vals["dgp.dataset_bytes"] = float(np.mean(dataset_bytes)) if dataset_bytes else 0.0
    vals.update(probe)
    vals["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    return {name: {"value": vals[name], "unit": unit} for name, unit in PER_LAYER.items()}
