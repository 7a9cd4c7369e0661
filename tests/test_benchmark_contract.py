"""The benchmark under perfbench/ reaches into braidcalc by name.

`perfbench/tracing.py` patches every boundary it lists with `getattr`,
and `perfbench/workloads.py` imports names from several modules.  Both
files are only loaded here: `Tracer.install()` is never called, since it
patches functions for the life of the process.
"""

import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # raises ImportError if an imported name is gone
    return module


def test_traced_boundaries_resolve():
    tracing = _load("tracing")
    for group, boundaries in tracing.MODULE_BOUNDARIES.items():
        for owner, attr in boundaries:
            assert inspect.isfunction(getattr(owner, attr, None)), (group, owner.__name__, attr)
    for group, boundaries in tracing.CLASS_BOUNDARIES.items():
        for cls, attr in boundaries:
            assert attr in cls.__dict__, (group, cls.__name__, attr)


def test_workload_imports_resolve():
    workloads = _load("workloads")
    for attr in ("reconstruct_from_ideal", "universal_ideals", "_delta_group", "conjugation_star", "transpose"):
        assert callable(getattr(workloads, attr)), attr
