"""Every span target of the benchmark tracer still names code in dyadreg.

`perfbench/spans.py` swaps each `TARGETS` entry for a timing wrapper by a hard
lookup when a run is traced (`perfbench/run.py --trace 1`), so removing or
renaming a traced function or method would crash the traced benchmark."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.TARGETS)


@pytest.mark.parametrize("mod_name, attr", _targets(), ids=lambda v: v)
def test_span_target_resolves(mod_name, attr):
    owner = importlib.import_module(mod_name)
    if "." in attr:  # a method, patched in its class's own __dict__
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(meth))
    else:
        assert callable(getattr(owner, attr, None))


def test_nw_estimate_keeps_the_arguments_the_tracer_unpacks():
    """The tracer reads nw_estimate's data and grid as args[0] and args[3],
    and the per-layer metrics unpack all four positional arguments."""
    from dyadreg.estimator import nw_estimate

    params = inspect.signature(nw_estimate).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in ("data", "kernel", "h", "grid")]
