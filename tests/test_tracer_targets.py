import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_every_traced_function_resolves(monkeypatch):
    # the benchmark tracer wraps slicereg functions by name: a removed or
    # renamed function must fail here, not only in the benchmark's own tests
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_slicereg_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, function in tracing.WRAPPED:
        fn = getattr(importlib.import_module(f"slicereg.{module}"), function, None)
        assert callable(fn), f"slicereg.{module}.{function}"
        assert fn.__module__ == f"slicereg.{module}", f"slicereg.{module}.{function}"
