import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


# the call arguments the tracer's probes read, by parameter name
PROBED = {
    ("poisson", "poisson_integral_slice"): ("zs", "nodes"),
    ("series", "eval_complex"): ("z",),
    ("lipschitz", "disc_pair_coords"): ("plan",),
    ("lipschitz", "ball_pair_coords"): ("plan",),
    ("lipschitz", "circle_pair_angles"): ("plan",),
}


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_slicereg_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_resolves(monkeypatch):
    # the benchmark tracer wraps slicereg functions by name: a removed or
    # renamed function must fail here, not only in the benchmark's own tests
    tracing = _load_tracing(monkeypatch)
    for module, function in tracing.WRAPPED:
        fn = getattr(importlib.import_module(f"slicereg.{module}"), function, None)
        assert callable(fn), f"slicereg.{module}.{function}"
        assert fn.__module__ == f"slicereg.{module}", f"slicereg.{module}.{function}"
    for (module, function), names in PROBED.items():
        assert (module, function) in tracing.PROBES
        params = inspect.signature(getattr(importlib.import_module(f"slicereg.{module}"),
                                           function)).parameters
        assert set(names) <= set(params), f"slicereg.{module}.{function}"


def test_tracer_spans_every_suite(monkeypatch):
    # the tracer keeps its own list of suite names; a suite added to the
    # verify table without a trace span must fail here
    from slicereg.verify import ALL_SUITES

    assert _load_tracing(monkeypatch).SUITES == ALL_SUITES


def test_dispatch_reads_module_globals(monkeypatch, tmp_path):
    # the tracer replaces functions in slicereg.cli and slicereg.verify; the
    # suite dispatch and the estimator table must reach the replacements, not
    # the function objects they saw at import
    from slicereg import cli, verify

    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    spy(verify, "verify_modulus_membership")
    spy(cli, "global_norm")
    (report,) = verify.run_suite(cli.RunConfig(n_pairs=256, suites=("modulus_membership",)))
    assert report.passed
    assert cli.main(["norm", "--name", "identity", "--estimator", "global",
                     "--pairs", "256", "--out", str(tmp_path / "n.json")]) == 0
    assert calls == ["verify_modulus_membership", "global_norm"]
