"""The benchmark under perfbench/ imports cvqelab modules and wraps their
functions by name; a deleted or renamed name fails here instead of in a
benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_modules_import_and_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    importlib.import_module("oracles")
    importlib.import_module("workloads")
    for module, names in tracer.TRACED.items():
        mod = importlib.import_module(f"cvqelab.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"cvqelab.{module}.{name}"
