"""Span tracing around the calls into dyadreg's layers, done from outside.

`Tracer.install` swaps each traced function for a wrapper in every dyadreg
module namespace that binds it (`rates` calls `simulate` through its own
`from .dgp import simulate` binding, so patching `dgp` alone would miss it),
and swaps traced methods on their class. `uninstall` puts the originals
back. Spans (name, start, end, parent) are kept in memory and written out
once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name; "Class.method" attributes patch the class.
TARGETS = {
    ("dyadreg.kernels", "make_kernel"): "kernels.make_kernel",
    ("dyadreg.dgp", "simulate"): "dgp.simulate",
    ("dyadreg.dgp", "simulate_latents"): "dgp.simulate_latents",
    ("dyadreg.dgp", "DyadicDataset.__post_init__"): "dgp.dataset_init",
    ("dyadreg.dgp", "DyadicDataset.y_filled"): "dgp.y_filled",
    ("dyadreg.dgp", "save_dataset"): "dgp.save_dataset",
    ("dyadreg.dgp", "load_dataset"): "dgp.load_dataset",
    ("dyadreg.estimator", "nw_estimate"): "estimator.nw_estimate",
    ("dyadreg.decomposition", "hoeffding_decompose"): "decomposition.hoeffding_decompose",
    ("dyadreg.rates", "run_rate_experiment"): "rates.run_rate_experiment",
    ("dyadreg.minimax", "woodbury_sides"): "minimax.woodbury_sides",
    ("dyadreg.minimax", "SelectionMatrices.t_matvec"): "minimax.t_matvec",
    ("dyadreg.minimax", "SelectionMatrices.t_rmatvec"): "minimax.t_rmatvec",
    ("dyadreg.minimax", "kl_two_point"): "minimax.kl_two_point",
    ("dyadreg.minimax", "fano_kl_average"): "minimax.fano_kl_average",
    ("dyadreg.minimax", "holder_membership_check"): "minimax.holder_check",
    ("dyadreg.minimax", "build_selection"): "minimax.build_selection",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, tuple] = {}   # span name -> args of the largest call
        self._patched: list[tuple[object, str, object]] = []
        self.enabled = True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def count(self, name: str, value: float = 1.0):
        self.counts[name] += value

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name == "estimator.nw_estimate":
                tracer._note_estimate(args)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def _note_estimate(self, args):
        # nw_estimate(data, kernel, h, grid): the contraction is 2 N^2 G flops
        data, grid = args[0], args[3]
        self.count("estimator.contraction_flops", 2.0 * data.n_units**2 * len(grid))
        largest = self.calls.get("estimator.nw_estimate")
        if largest is None or data.n_units >= largest[0].n_units:
            self.calls["estimator.nw_estimate"] = args

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "dyadreg" or k.startswith("dyadreg.")]
        for (mod_name, attr), name in TARGETS.items():
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # --- summaries -----------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for name, start, end, _ in self.spans:
            out[name].append(end - start)
        return out

    def child_time(self, parent_name: str, child_names: set[str]) -> list[float]:
        """Per span of parent_name, the time covered by its direct children
        named in child_names."""
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == parent_name and name in child_names:
                covered[parent] += end - start
        return [covered[i] for i, s in enumerate(self.spans) if s[0] == parent_name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        covered = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return dict(out)

    def write(self, path: str, extra: dict):
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = dict(extra)
        payload["self_time_s"] = self.self_times()
        payload["span_counts"] = {k: len(v) for k, v in self.durations().items()}
        payload["counts"] = dict(self.counts)
        payload["spans"] = [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                            for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
