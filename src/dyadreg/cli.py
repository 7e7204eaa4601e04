"""Command-line interface: simulate / estimate / rates / minimax / diagnose.

Exit codes: 0 success, 2 configuration error (message names the offending
key), 3 assumption-violation refusal (e.g. a degenerate Fano packing, KL
precondition). Refusals never leave partial output files: everything is
computed first and written atomically afterwards.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, dgp
from .decomposition import variance_dominance
from .dgp import (DGP_KINDS, GRID_POINTS_MAX, _sibling_paths, _stream, atomic_open, axes_grid,
                  load_dataset, make_dgp, read_manifest, save_dataset, simulate)
from .errors import AssumptionViolation, ConfigError
from .estimator import BandwidthRule, bandwidth, kernel_scale, nw_estimate
from .kernels import make_kernel
from .minimax import (fano_kl_average, holder_membership_check, hypothesis_g,
                      kl_two_point, make_fano, make_two_point, separation_check,
                      build_selection, woodbury_gap)
from .rates import (RateExperiment, plot_data, rate_fit_json, rate_rows_csv,
                    run_rate_experiment)

__all__ = ["main"]


def _write_run_manifest(subcommand: str, config: dict, outputs: list[str]):
    if not outputs:
        return
    import scipy  # only the run record reads scipy, so a CLI session without --manifest loads none

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    manifest = {
        "subcommand": subcommand,
        "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": config.get("seed"),
        "artifact_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [os.path.abspath(p) for p in outputs],
        "replicate_threads": dgp._THREADS,
        "nproc": os.cpu_count(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": {key: os.environ.get(key)
                            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    with atomic_open(outputs[0] + ".run.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_bandwidth(text: str, beta: float, d_x: int) -> BandwidthRule:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"bandwidth must look like mode:c0, got {text!r}")
    try:
        return BandwidthRule(mode=parts[0], c0=float(parts[1]), beta=beta, d_x=d_x)
    except ValueError as exc:
        raise ConfigError(f"bandwidth {text!r}: {exc}") from None


def _bandwidth(rule: BandwidthRule, n_units: int, dim: int) -> float:
    """h_N under the rule, refused where N < 3 or h^-dim overflows a float."""
    try:
        h = bandwidth(rule, n_units)
        kernel_scale(h, dim)
    except ValueError as exc:
        raise ConfigError(f"--bandwidth at N={n_units}: {exc}") from None
    return h


def _parse_list(text: str, key: str, cast) -> tuple:
    try:
        values = tuple(cast(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated {cast.__name__} list, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return values


def _spec(args):
    """The DGP named by --dgp, --g, --d-x and --law."""
    try:
        return make_dgp(args.dgp, g_name=args.g, d_x=args.d_x, law=args.law)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_out_path(path: str | None, key: str):
    """Refuse, before any work, an output path that is a directory or lies in none."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path)))):
        raise ConfigError(f"{key}: {path!r} is a directory or its directory does not exist")


def _kernel(kernel_id: str, dim: int, key: str):
    """The kernel that option `key` names."""
    try:
        return make_kernel(kernel_id, dim)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


# --- simulate ----------------------------------------------------------------


def _cmd_simulate(args) -> list[str]:
    if args.n < 2:
        raise ConfigError(f"--n must be >= 2, got {args.n}")
    data = simulate(_spec(args), args.n, args.seed)
    meta = {"dgp": args.dgp, "g": args.g, "law": args.law, "d_x": args.d_x,
            "seed": args.seed, "n_units": args.n}
    save_dataset(data, args.out, meta=meta)
    return list(_sibling_paths(args.out))


# --- estimate ----------------------------------------------------------------


def _parse_grid(text: str, dim: int) -> np.ndarray:
    specs = text.split(",")
    if len(specs) == 1:
        specs = specs * dim
    if len(specs) != dim:
        raise ConfigError(f"grid needs 1 or {dim} coordinate specs min:max:steps, got {len(specs)}")
    axes = []
    for sp in specs:
        parts = sp.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid coordinate spec must be min:max:steps, got {sp!r}")
        try:
            lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad grid coordinate spec {sp!r}") from None
        if steps < 1 or not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"bad grid coordinate spec {sp!r}")
        axes.append((lo, hi, steps))
    if math.prod(steps for _, _, steps in axes) > GRID_POINTS_MAX:
        raise ConfigError(f"grid {text!r} has more than {GRID_POINTS_MAX} points")
    return axes_grid([np.linspace(*axis) for axis in axes])


def _cmd_estimate(args) -> list[str]:
    # flags are checked against the manifest before the pairs file, the slow part, is read
    try:
        manifest = read_manifest(args.data)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--data: {exc}") from None
    d_x = manifest["d_x"]
    kernel = _kernel(args.kernel, 2 * d_x, "--kernel")
    rule = _parse_bandwidth(args.bandwidth, args.beta, d_x)
    grid = _parse_grid(args.grid, 2 * d_x)
    h = _bandwidth(rule, manifest["n_units"], kernel.dim)
    try:
        data, _manifest = load_dataset(args.data)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--data: {exc}") from None
    res = nw_estimate(data, kernel, h, grid)
    with atomic_open(args.out) as fh:
        fh.write(",".join([f"w_{c + 1}" for c in range(2 * d_x)] + ["f_hat", "g_hat", "defined"]) + "\n")
        for w, f, g, ok in zip(grid, res.f_hat, res.g_hat, res.defined):
            cells = [repr(float(v)) for v in w] + [repr(float(f))]
            cells += [repr(float(g)), "1"] if ok else ["", "0"]
            fh.write(",".join(cells) + "\n")
    return [args.out]


# --- rates -------------------------------------------------------------------

_RATES_KEYS = {
    "dgp.kind", "dgp.g", "dgp.d_x", "dgp.law", "dgp.beta",
    "kernel", "bandwidth.mode", "bandwidth.c0",
    "mode", "w0", "grid.lo", "grid.hi", "grid.steps",
    "n_list", "reps", "seed", "metric", "out.prefix",
}


def _read_config(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
                key, value = (tok.strip() for tok in line.split("=", 1))
                if key in out:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                out[key] = value
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"config file {path!r}: {exc}") from None
    return out


def _cmd_rates(args) -> list[str]:
    cfg = _read_config(args.config)
    unknown = set(cfg) - _RATES_KEYS
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")

    def value(key, cast=str, default=None):
        if key not in cfg and default is None:
            raise ConfigError(f"missing required config key {key!r}")
        text = cfg.get(key, default)
        try:
            out = cast(text)
        except ValueError:
            raise ConfigError(f"{key}: expected {cast.__name__}, got {text!r}") from None
        if cast is float and not math.isfinite(out):
            raise ConfigError(f"{key}: expected a finite number, got {text!r}")
        return out

    d_x = value("dgp.d_x", int, "1")
    beta = value("dgp.beta", float, "2.0")
    try:
        spec = make_dgp(cfg.get("dgp.kind", "theorem1"), g_name=cfg.get("dgp.g", "sin_additive"),
                        d_x=d_x, law=cfg.get("dgp.law", "uniform"), beta=beta)
    except ValueError as exc:
        raise ConfigError(f"dgp.*: {exc}") from None
    mode = cfg.get("mode", "pointwise")
    w0 = _parse_list(value("w0"), "w0", float) if mode == "pointwise" else None
    try:
        rule = BandwidthRule(mode=cfg.get("bandwidth.mode", "pointwise-optimal"),
                             c0=value("bandwidth.c0", float, "1.0"), beta=beta, d_x=d_x)
        exp = RateExperiment(
            dgp=spec,
            kernel_id=cfg.get("kernel", "gaussian"),
            rule=rule,
            mode=mode,
            n_list=_parse_list(value("n_list"), "n_list", int),
            reps=value("reps", int),
            seed=value("seed", int, "0"),
            w0=w0,
            grid_lo=value("grid.lo", float, "0.2"),
            grid_hi=value("grid.hi", float, "0.8"),
            grid_steps=value("grid.steps", int, "9"),
            metric=cfg.get("metric", "median"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    prefix = value("out.prefix")
    _check_out_path(prefix, "out.prefix")
    fit = run_rate_experiment(exp)
    outputs = [prefix + ".csv", prefix + ".fit.json", prefix + ".plot.dat"]
    texts = [render(fit) for render in (rate_rows_csv, rate_fit_json, plot_data)]
    for path, text in zip(outputs, texts):
        with atomic_open(path) as fh:
            fh.write(text)
    return outputs


# --- minimax -----------------------------------------------------------------

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(sys.float_info.min)


def _check_minimax_range(con, n_list, reps: int):
    """Refuse, before any Monte Carlo, an --l or --c0 whose report would leave
    float range. In logs: a KL draw is at most N A^2 / 2 with A = L h_N^beta K(0)
    the hypothesis amplitude, and np.std sums `reps` squares of such draws; the
    two-point bound is L^2 K(0)^2 c0^(2 beta + d_x) / 2 (B3 = 1), each power
    taken on its own. On the small side, one bump's height s A, half the
    required separation 2 s L K(0) c0^beta psi_N, must stay a normal float."""
    log_l, log_k0 = math.log(con.l_const), math.log(con.k_at_zero)
    log_pow = (2.0 * con.beta + con.d_x) * math.log(con.c0)
    for n in n_list:
        h = con.h_n(n)  # 0.0 once a subnormal c0 underflows
        log_a = log_l + con.beta * (math.log(h) if h > 0.0 else -math.inf) + log_k0
        logs = [2.0 * (math.log(0.5 * n) + 2.0 * log_a) + math.log(reps), 2.0 * log_l]
        if con.variant == "two-point":
            logs += [log_pow, math.log(0.5) + 2.0 * (log_l + log_k0) + log_pow]
        if max(logs) >= _LOG_FLOAT_MAX or math.log(con.share) + log_a < _LOG_FLOAT_MIN:
            raise ConfigError(f"--l {con.l_const:g} with --c0 {con.c0:g} puts the minimax "
                              f"report out of float range at N={n}")


def _cmd_minimax(args) -> list[str]:
    n_list = _parse_list(args.n, "--n", int)
    if args.reps < 2 or min(n_list) < 2:
        raise ConfigError(f"need --reps >= 2 and every --n >= 2, got --reps {args.reps} --n {args.n}")
    two_point = args.variant == "two-point"
    try:
        con = (make_two_point if two_point else make_fano)(args.beta, args.l, args.c0, args.d_x)
    except ValueError as exc:
        raise ConfigError(f"minimax construction: {exc}") from None
    _check_minimax_range(con, n_list, args.reps)
    reports = []
    for n in n_list:
        if two_point:
            kl = kl_two_point(con, n, args.reps, args.seed)
            centers_grid = np.concatenate([np.concatenate(con.centers)[None, :],
                                           np.tile(con.centers[0], 2)[None, :]])
            sep = separation_check(con, 1, 0, centers_grid, n)
        else:
            kl = fano_kl_average(con, n, args.reps, args.seed)
            centers = con.fano_centers(n)
            grid = np.hstack([centers, centers])
            sep = separation_check(con, 1, 2, grid, n)
        h = con.h_n(n)
        g1 = lambda w: hypothesis_g(con, 1, w, n)
        hold = holder_membership_check(g1, args.beta, args.l, 2 * args.d_x,
                                       n_pairs=400, seed=args.seed, box=(-0.25, 1.25))
        sel = build_selection(n)
        rng = _stream(args.seed, 99)
        gaps = [abs(woodbury_gap(sel, rng.standard_normal(n))) for _ in range(3)]
        body = {
            "n_units": n,
            "h_n": h,
            "bound": kl.bound,
            "separation": {"gap": sep.gap, "required": sep.required, "passed": sep.passed},
            "holder_pass": hold.passed,
            "holder_max_ratio": hold.max_violation_ratio,
            "woodbury_max_gap": max(gaps),
            "kl_se": kl.kl_se,
        }
        if two_point:
            mean = body["kl_mean"] = kl.kl_mean
        else:
            mean = body["avg_kl"] = kl.avg_kl
            body.update(alpha_implied=kl.alpha_implied, ln_m_n=kl.ln_m_n, ln_m_lower=kl.ln_m_lower,
                        n_hypotheses=kl.n_hypotheses)
        body["kl_within_bound"] = mean <= kl.bound + 3.0 * kl.kl_se
        reports.append(body)
    text = json.dumps({"variant": args.variant, "beta": args.beta, "l": args.l,
                       "c0": args.c0, "d_x": args.d_x, "seed": args.seed,
                       "reports": reports}, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(text)
        return [args.out]
    sys.stdout.write(text)
    return []


# --- diagnose ----------------------------------------------------------------


def _cmd_diagnose(args) -> list[str]:
    spec = _spec(args)
    n_list = _parse_list(args.n, "--n", int)
    if args.reps < 50 or min(n_list) < 3:
        raise ConfigError(f"need --reps >= 50 and every --n >= 3, got --reps {args.reps} --n {args.n}")
    kernel = _kernel(args.kernel, 2 * args.d_x, "--kernel")
    rule = _parse_bandwidth(args.bandwidth, args.beta, args.d_x)
    for n in n_list:
        _bandwidth(rule, n, kernel.dim)
    w = np.asarray(_parse_list(args.w, "--w", float))
    if w.shape != (2 * args.d_x,):
        raise ConfigError(f"--w must have {2 * args.d_x} coordinates")
    rows = variance_dominance(spec, kernel, rule, n_list, args.reps, w, args.seed)
    with atomic_open(args.out) as fh:
        fh.write("n,var_t1,var_t2,ratio,n_excluded\n")
        for r in rows:
            fh.write(f"{r.n_units},{r.var_t1!r},{r.var_t2!r},{r.ratio!r},{r.n_excluded}\n")
    return [args.out]


# --- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dyadreg",
                                description="Dyadic kernel regression toolkit")
    p.add_argument("--version", action="version", version=f"dyadreg {__version__}")
    p.add_argument("--manifest", action="store_true",
                   help="write a .run.json manifest next to the first output")
    sub = p.add_subparsers(dest="subcommand", required=True)

    ps = sub.add_parser("simulate", help="draw a dyadic dataset and write it to CSV")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--dgp", default="theorem1", choices=DGP_KINDS)
    ps.add_argument("--g", default="sin_additive")
    ps.add_argument("--d-x", dest="d_x", type=int, default=1)
    ps.add_argument("--law", default="uniform", choices=("uniform", "truncnorm"))
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=_cmd_simulate)

    pe = sub.add_parser("estimate", help="evaluate the regression estimator on a grid")
    pe.add_argument("--data", required=True, help="pair-list CSV written by simulate")
    pe.add_argument("--kernel", default="gaussian")
    pe.add_argument("--bandwidth", default="uniform-optimal:1.0", help="mode:c0")
    pe.add_argument("--beta", type=float, default=2.0)
    pe.add_argument("--grid", required=True, help="min:max:steps per coordinate, comma-separated")
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=_cmd_estimate)

    pr = sub.add_parser("rates", help="run a Monte Carlo rate experiment from a config file")
    pr.add_argument("--config", required=True)
    pr.set_defaults(func=_cmd_rates)

    pm = sub.add_parser("minimax", help="evaluate the lower-bound constructions")
    pm.add_argument("--variant", default="two-point", choices=("two-point", "fano"))
    pm.add_argument("--beta", type=float, default=2.0)
    pm.add_argument("--l", type=float, default=1.0)
    pm.add_argument("--c0", type=float, default=1.0)
    pm.add_argument("--d-x", dest="d_x", type=int, default=1)
    pm.add_argument("--n", required=True, help="comma-separated unit counts")
    pm.add_argument("--reps", type=int, default=200)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--out", default=None)
    pm.set_defaults(func=_cmd_minimax)

    pd = sub.add_parser("diagnose", help="Hoeffding variance-dominance table")
    pd.add_argument("--dgp", default="theorem1", choices=DGP_KINDS)
    pd.add_argument("--g", default="sin_additive")
    pd.add_argument("--d-x", dest="d_x", type=int, default=1)
    pd.add_argument("--law", default="uniform", choices=("uniform", "truncnorm"))
    pd.add_argument("--kernel", default="epanechnikov")
    pd.add_argument("--bandwidth", default="uniform-optimal:1.0")
    pd.add_argument("--beta", type=float, default=2.0)
    pd.add_argument("--n", required=True, help="comma-separated unit counts")
    pd.add_argument("--reps", type=int, default=100)
    pd.add_argument("--w", required=True, help="comma-separated evaluation point")
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--out", required=True)
    pd.set_defaults(func=_cmd_diagnose)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = {k: v for k, v in vars(args).items() if k not in ("func", "manifest")}
    try:
        _check_out_path(getattr(args, "out", None), "--out")  # rates names its outputs in its config
        if getattr(args, "seed", 0) < 0:  # the rates seed is checked with its config
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        outputs = args.func(args)
        if args.manifest:
            _write_run_manifest(args.subcommand, config, outputs)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssumptionViolation as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
