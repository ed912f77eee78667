import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slicereg
from slicereg.cli import (
    _ESTIMATORS,
    ParseError,
    RunConfig,
    ValidationError,
    build_parser,
    emit_report,
    load_function_spec,
    main,
    parse_majorant,
    parse_point,
    to_json,
)
from slicereg.majorant import PowerMajorant, ScaledMajorant, SumMajorant, TabulatedMajorant
from slicereg.verify import run_suite


# --- spec-string parsing --------------------------------------------------------

def test_parse_majorant_kinds():
    assert isinstance(parse_majorant("power:0.5"), PowerMajorant)
    w = parse_majorant("power:0.5:2.0")
    assert w(0.25) == pytest.approx(1.0)
    # power:<alpha>:<c> is shorthand for scaled:<c>:power:<alpha>
    assert w == parse_majorant("scaled:2:power:0.5") == ScaledMajorant(2.0, PowerMajorant(0.5))
    assert isinstance(parse_majorant("scaled:2:power:0.5"), ScaledMajorant)
    assert isinstance(parse_majorant("power:0.5+power:0.25"), SumMajorant)
    tab = parse_majorant("tabulated:0,0;1,1;2,1.5")
    assert isinstance(tab, TabulatedMajorant)
    assert tab(1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("bad", ["", "garbage", "power", "power:abc", "scaled:x:power:0.5"])
def test_parse_majorant_malformed(bad):
    with pytest.raises(ParseError):
        parse_majorant(bad)


@pytest.mark.parametrize("bad", ["power:3", "power:0", "power:0.5:0", "power:0.5:-2",
                                 "scaled:-1:power:0.5", "tabulated:1,1;2,2"])
def test_parse_majorant_invalid_values(bad):
    with pytest.raises(ValidationError):
        parse_majorant(bad)


def test_parse_unit_and_point():
    # RunConfig is the one unit normalizer: --slice hands it the parsed vector
    assert RunConfig(slice_i=(1, 2, 2)).slice_i == pytest.approx((1 / 3, 2 / 3, 2 / 3))
    p = parse_point("0.1,0.2,0.3,0.4")
    assert p.components() == (0.1, 0.2, 0.3, 0.4)
    with pytest.raises(ValidationError):
        RunConfig(slice_i=(1, 2))
    with pytest.raises(ParseError):
        parse_point("a,b,c,d")
    with pytest.raises(ValidationError, match="unit vector must be nonzero"):
        RunConfig(slice_i=(0, 0, 0))


# --- function files -------------------------------------------------------------

def test_load_function_spec(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"id": [[0,0,0,0],[1,0,0,0]], "c": [[0.5,0,0,0]]}')
    members = load_function_spec(str(path))
    assert [m.name for m in members] == ["id", "c"]
    assert members[0].series.degree == 1


def test_load_function_spec_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"id": [[0,0,0,0],\n  [1,0,0]')
    with pytest.raises(ParseError) as err:
        load_function_spec(str(bad_json))
    assert "line" in str(err.value)

    empty = tmp_path / "empty.json"
    empty.write_text('{"id": []}')
    with pytest.raises(ValidationError):
        load_function_spec(str(empty))

    arity = tmp_path / "arity.json"
    arity.write_text('{"id": [[1,0,0]]}')
    with pytest.raises(ValidationError):
        load_function_spec(str(arity))

    text = tmp_path / "text.json"
    text.write_text('{"id": [[1,0,0,"x"]]}')
    with pytest.raises(ParseError):
        load_function_spec(str(text))


# --- deterministic JSON -----------------------------------------------------------

def test_to_json_17_digits_and_nonfinite():
    s = to_json({"x": 0.1, "big": 1.0 / 3.0})
    assert "0.10000000000000001" in s
    assert "0.33333333333333331" in s
    assert float(s.split('"x": ')[1].split(",")[0]) == 0.1  # round-trips exactly
    assert "null" in to_json({"bad": float("nan")})
    assert "null" in to_json({"bad": float("inf")})
    assert to_json({"a": np.array([1, 2])}).count("\n") > 2


def test_to_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_json({"x": object()})


# --- run config --------------------------------------------------------------------

def test_run_config_roundtrip_and_validation():
    cfg = RunConfig(seed=7, n_pairs=256, suites=("inclusion_chain",))
    back = RunConfig.from_dict(dataclasses.asdict(cfg))
    assert back == cfg
    with pytest.raises(ValidationError):
        RunConfig.from_dict({"bogus_key": 1})
    # parsed properties read by the suite runner
    assert cfg.plan.n_pairs == 256
    assert cfg.omega(0.25) == pytest.approx(0.5)
    assert cfg.i.components() == (1.0, 0.0, 0.0)


def test_slice_unit_is_normalized_once(tmp_path):
    # the config block records the unit the run uses, to the bit: --slice
    # normalizes, RunConfig keeps a unit as it is, and a saved config that
    # comes back keeps its bits
    out = tmp_path / "rep.json"
    assert main(["verify", "--slice", "i=0,1,1", "--suite", "modulus_membership",
                 "--pairs", "64", "--out", str(out)]) == 0
    cfg = RunConfig.from_dict(json.loads(out.read_text())["config"])
    assert cfg.slice_i == (0.0, 0.7071067811865475, 0.7071067811865475)
    assert cfg.i.components() == cfg.slice_i
    rng = np.random.default_rng(11)
    for v in rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 1)):
        text = ",".join(str(float(c)) for c in v)
        cfg = RunConfig(slice_i=[float(c) for c in text.split(",")], slice_k=tuple(v))
        assert cfg.i.components() == cfg.slice_i == RunConfig(slice_i=cfg.slice_i).slice_i
        assert cfg.k.components() == cfg.slice_k == cfg.slice_i
        assert RunConfig.from_dict(dataclasses.asdict(cfg)) == cfg


def test_run_config_reproduces_run(tmp_path):
    cfg = RunConfig(seed=3, n_pairs=256, nodes=512, suites=("slice_independence",))
    a = [r.to_dict() for r in run_suite(cfg)]
    b = [r.to_dict() for r in run_suite(RunConfig.from_dict(dataclasses.asdict(cfg)))]
    assert to_json(a) == to_json(b)


# --- report emission -----------------------------------------------------------------

def test_emit_report_json_and_exit_code(tmp_path):
    cfg = RunConfig(seed=5, n_pairs=256, nodes=512, suites=("modulus_membership",))
    reports = run_suite(cfg)
    out = tmp_path / "rep.json"
    code = emit_report(reports, str(out), "json", cfg)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert doc["config"]["seed"] == 5
    assert doc["reports"][0]["suite"] == "modulus_membership"


def test_emit_report_empty_and_csv(tmp_path):
    out = tmp_path / "empty.json"
    assert emit_report([], str(out), "json", RunConfig()) == 0
    assert json.loads(out.read_text())["reports"] == []

    cfg = RunConfig(seed=5, n_pairs=256, nodes=512, suites=("modulus_membership",))
    csv_path = tmp_path / "rep.csv"
    emit_report(run_suite(cfg), str(csv_path), "csv", cfg)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "suite,function,passed,main_check,main_value,witness"
    assert len(lines) == 1 + 9  # one row per corpus member


def test_emit_report_failing_suite_exits_one(tmp_path):
    cfg = RunConfig(n_pairs=256, suites=("not_a_suite",))
    reports = run_suite(cfg)
    assert emit_report(reports, str(tmp_path / "f.json"), "json", cfg) == 1


# --- the entry point ------------------------------------------------------------------

def test_main_eval(tmp_path, capsys):
    spec = tmp_path / "f.json"
    spec.write_text('{"id": [[0,0,0,0],[1,0,0,0]]}')
    assert main(["eval", "--file", str(spec), "--at", "0.3,0.4,0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["id"][0]["value"] == [0.3, 0.4, 0, 0]


def test_main_star_inverse(tmp_path):
    spec = tmp_path / "f.json"
    spec.write_text('{"g": [[1,0,0,0],[0,1,0,0]]}')
    out = tmp_path / "inv.json"
    assert main(["star", "--file", str(spec), "--inverse", "g",
                 "--order", "6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    coeffs = doc["inverse:g"]
    # (1 + q e1)^-* = sum (-1)^n q^2n - q^(2n+1) e1 ...: check the first few
    assert coeffs[0] == [1, 0, 0, 0]
    assert coeffs[1] == [0, -1, 0, 0]
    assert coeffs[2] == [-1, 0, 0, 0]


def test_main_majorant_check_exit_codes(tmp_path):
    assert main(["majorant-check", "--omega", "power:0.5",
                 "--out", str(tmp_path / "m.json")]) == 0
    assert main(["majorant-check", "--omega", "power:1.0",
                 "--out", str(tmp_path / "m1.json")]) == 1
    assert main(["majorant-check", "--omega", "power:9"]) == 2


@pytest.mark.parametrize("spec, constant", [
    ("power:0.9", 1.0 / 0.9 + 10.0),  # a sampled certificate read it as diverging
    ("scaled:1e308:power:0.5", 4.0),  # omega(t)/t overflowed the ratio screen
    ("power:0.5:1e308", 4.0),
])
def test_majorant_check_certifies_powers_by_closed_form(spec, constant, tmp_path):
    out = tmp_path / "m.json"
    assert main(["majorant-check", "--omega", spec, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["is_regular"] and doc["empirical_C"] == pytest.approx(constant, rel=1e-15)
    assert doc["C_lower"] == doc["C_upper"] == doc["empirical_C"]
    assert main(["majorant-check", "--omega", spec, "--nodes", "3"]) == 2


@pytest.mark.parametrize("panels", [-3, 0, 2, 3])
def test_majorant_check_needs_four_nodes(panels, capsys):
    # the closed-form certificate reads no --nodes, but fewer than 4 are
    # still refused, as when they counted quadrature panels
    spec = "power:0.5+tabulated:0,0;0.5,0.2;2,0.5"
    assert main(["majorant-check", "--omega", spec, "--nodes", str(panels)]) == 2
    assert "--nodes" in capsys.readouterr().err
    assert main(["majorant-check", "--omega", spec, "--nodes", "4", "--out", os.devnull]) == 0


def test_majorant_check_refuses_a_weight_that_overflows_as_every_run_does(tmp_path, capsys):
    # the scales overflow: inf at min_separation and at 2, so RunConfig's rule
    # refuses it, with its one message; majorant-check read it as a
    # non-monotone weight (exit 1)
    spec = "power:0.5+scaled:1e308:scaled:1e10:power:1"
    out = tmp_path / "m.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["majorant-check", "--omega", spec, "--out", str(out)]) == 2
        assert main(["verify", "--omega", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: config omega_spec must be a weight that is normal at "
                   f"min_separation and finite at 2, got {spec!r}"] * 2
    assert not out.exists()


def test_majorant_check_rejects_an_overflowing_power_constant(tmp_path):
    out = tmp_path / "m.json"
    assert main(["majorant-check", "--omega", "power:1e-320", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert not doc["is_regular"] and doc["empirical_C"] is None


def test_verify_passes_with_power_near_one(tmp_path):
    # power:0.9 failed derivative_characterizations with omega_not_regular
    # while its constant came from the quadrature
    out = tmp_path / "rep.json"
    assert main(["verify", "--omega", "power:0.9", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["reports"]) == 9 and all(r["passed"] for r in doc["reports"])


def test_verify_fails_on_an_overflowing_bound(tmp_path):
    # c3 * mu1d overflows on some pairs for two members; the bound holds
    # nothing there, so the check fails instead of warning and passing
    out = tmp_path / "rep.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--omega", "scaled:1e308:power:0.5", "--pairs", "256",
                     "--points", "64", "--nodes", "512", "--out", str(out)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    failed = [(r["suite"], rec["name"], rec["failures"])
              for r in json.loads(out.read_text())["reports"] for rec in r["records"]
              if not rec["passed"]]
    assert failed == [("algebraic_closure", name, ["combine_component1_violation"])
                      for name in ("cubic_basis", "linear_mix")]


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    argv = ["norm", "--name", "random_0", "--estimator", "slice", "--pairs", "64"]
    outputs = []
    for extra in ([], ["--slice", "i=1,1,1"], []):
        assert main([*argv, *extra]) == 0
        outputs.append(capsys.readouterr().out)
    # the appended --slice of the second call does not reach the third
    assert outputs[0] == outputs[2] != outputs[1]


def test_main_norm(tmp_path, capsys):
    spec = tmp_path / "f.json"
    spec.write_text('{"id": [[0,0,0,0],[1,0,0,0]]}')
    assert main(["norm", "--file", str(spec), "--name", "id", "--estimator", "slice",
                 "--omega", "power:0.5", "--pairs", "512"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(math.sqrt(2.0), rel=0.02)


def test_main_verify_deterministic(tmp_path):
    args = ["verify", "--seed", "77", "--pairs", "256", "--nodes", "512",
            "--suite", "slice_independence,inclusion_chain"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert [r["suite"] for r in doc["reports"]] == ["slice_independence", "inclusion_chain"]


def test_main_report_roundtrip(tmp_path):
    src = tmp_path / "run.json"
    main(["verify", "--pairs", "256", "--nodes", "512",
          "--suite", "modulus_membership", "--out", str(src)])
    out_csv = tmp_path / "run.csv"
    assert main(["report", "--in", str(src), "--format", "csv", "--out", str(out_csv)]) == 0
    assert out_csv.read_text().startswith("suite,function,passed")


def test_main_error_exit_codes(tmp_path, capsys):
    assert main(["eval", "--file", str(tmp_path / "missing.json"),
                 "--at", "0,0,0,0"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{!")
    assert main(["eval", "--file", str(bad), "--at", "0,0,0,0"]) == 2
    assert main(["norm", "--file", str(bad), "--name", "x", "--estimator", "slice",
                 "--omega", "power:0.5"]) == 2
    capsys.readouterr()


DATA = Path(__file__).parent / "data"
# estimators that read one entry of a result tuple shared with other variants
_VARIANTS = ("component", "boundary", "boundary-modulus",
             "derivative-full", "derivative-plus", "derivative-minus")


@pytest.mark.parametrize("argv, name, code", [
    (["verify", "--pairs", "256", "--points", "64", "--nodes", "512"], "verify_small.json", 0),
    (["star", "--left", "cubic_basis", "--right", "random_0"], "star_product.json", 0),
    (["star", "--inverse", "exp_taylor", "--order", "64"], "star_inverse.json", 0),
    (["eval", "--at", "0.3,0.4,0,0"], "eval.json", 0),
    (["norm", "--name", "exp_taylor", "--estimator", "schwarz-series", "--points", "64"],
     "norm_schwarz_series.json", 0),
    (["majorant-check", "--omega", "power:0.5"], "majorant_power.json", 0),
    (["majorant-check", "--omega", "power:0.5+tabulated:0,0;0.5,0.2;2,0.5"],
     "majorant_power_tabulated.json", 0),
    (["majorant-check", "--omega", "power:1"], "majorant_linear.json", 1),
    (["majorant-check", "--omega", "power:0.25+power:0.75"], "majorant_power_sum.json", 0),
    # the quadrature call whose rows split at the most knots, rejected
    (["majorant-check", "--omega", "tabulated:0,0;0.001,0.03;0.01,0.1;0.1,0.3;1,1;2,1.4"],
     "majorant_tabulated_rejected.json", 1),
    (["norm", "--name", "random_0", "--estimator", "schwarz-pointwise", "--points", "256"],
     "norm_schwarz_pointwise.json", 0),
    (["verify", "--slice", "i=1,1,1", "--slice", "k=0.3,-1,2", "--pairs", "256",
      "--points", "64", "--nodes", "512"], "verify_off_axis.json", 0),
    (["verify"], "verify_default.json", 0),
    # its 2048-point ray grid is the largest spectral Poisson call
    (["verify", "--seed", "1", "--pairs", "65536", "--points", "4096"], "verify_16x.json", 0),
    *((["norm", "--name", "random_0", "--estimator", kind],
       f"norm_{kind.replace('-', '_')}.json", 0)
      for kind in _VARIANTS),
    (["norm", "--name", "random_0", "--estimator", "slice"], "norm_slice.json", 0),
    (["norm", "--name", "random_0", "--estimator", "global"], "norm_global.json", 0),
    # without --omega2 the second weight is --omega
    (["norm", "--name", "random_0", "--estimator", "component", "--omega", "power:0.3"],
     "norm_component_omega.json", 0),
    (["norm", "--name", "random_0", "--estimator", "slice", "--slice", "i=1,1,1",
      "--pairs", "512", "--eps", "0.001", "--rho", "0.9"], "norm_slice_off_axis.json", 0),
    (["verify", "--pairs", "256", "--points", "64", "--nodes", "512", "--format", "csv"],
     "verify_small.csv", 0),
    (["report", "--in", str(DATA / "verify_small.json"), "--format", "csv"],
     "verify_small.csv", 0),
], ids=["verify_small", "star_product", "star_inverse", "eval", "norm_schwarz_series",
        "majorant_power", "majorant_power_tabulated", "majorant_linear", "majorant_power_sum",
        "majorant_tabulated_rejected",
        "norm_schwarz_pointwise", "verify_off_axis", "verify_default", "verify_16x",
        *(f"norm_{kind.replace('-', '_')}" for kind in _VARIANTS),
        "norm_slice", "norm_global", "norm_component_omega", "norm_slice_off_axis",
        "verify_small_csv", "report_small_csv"])
def test_verify_report_bytes_match_golden_file(argv, name, code, tmp_path):
    """The output of a CLI call, byte for byte, and its exit code: verify
    runs at the default and 16x plans and at small plans on axis and
    off-axis slices, the series-calculus paths (star product, star
    inverse, evaluation), weight certification,
    both readings of the Schwarz criterion, the entry each `norm`
    variant reads from its estimator, norm's plan, weight and slice flags,
    and the CSV summary, of a run and of its saved report.

    The files pin this environment (Python 3.11.7, numpy 2.4.6): another
    numpy may round the last digit of a float differently. Regenerate one with
    the argv above plus ``--out tests/data/<name>`` only for a change that is
    meant to alter that output.
    """
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("reading", ["series", "pointwise"])
@pytest.mark.parametrize("name", ["const_real", "const_quat"])
def test_schwarz_pick_of_a_constant_reports_no_verdict(name, reading, tmp_path):
    # a constant has f' = 0 everywhere, so every point is skipped: the
    # contract has nothing to hold on, and reads null, not a vacuous true
    out = tmp_path / "schwarz.json"
    assert main(["norm", "--name", name, "--estimator", f"schwarz-{reading}",
                 "--points", "64", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["n_used"], doc["n_skipped"]) == (0, 64)
    assert doc["contract_ok"] is None


def test_norm_writes_every_estimator_from_its_table_entry(monkeypatch, tmp_path):
    # --estimator takes the table's keys, and each entry, the Schwarz-Pick
    # readings included, reaches the function set on the module
    from slicereg import cli

    for kind in _ESTIMATORS:
        assert build_parser().parse_args(["norm", "--name", "x", "--estimator", kind])
    calls, real = [], cli.schwarz_pick_criterion

    def spy(*args, **kwargs):
        calls.append(args[-1])
        return real(*args, **kwargs)
    monkeypatch.setattr(cli, "schwarz_pick_criterion", spy)
    for reading in ("series", "pointwise"):
        assert main(["norm", "--name", "identity", "--estimator", f"schwarz-{reading}",
                     "--points", "64", "--out", str(tmp_path / "n.json")]) == 0
    assert calls == ["series", "pointwise"]


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the spectral Poisson sum multiplies matrices through BLAS, which may
    # split them between threads; the report must keep its bits
    src = str(Path(slicereg.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        out = tmp_path / f"threads{threads}.json"
        subprocess.run([sys.executable, "-m", "slicereg.cli", "verify", "--pairs", "256",
                        "--points", "1024", "--out", str(out)],
                       env=env, check=True, timeout=300)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("hook", ["profile", "trace"])
@pytest.mark.parametrize("argv, name", [
    (["norm", "--name", "random_0", "--estimator", "global"], "norm_global.json"),
    (["norm", "--name", "random_0", "--estimator", "component"], "norm_component.json"),
    (["verify", "--pairs", "256", "--points", "64", "--nodes", "512"], "verify_small.json"),
], ids=["norm_global", "norm_component", "verify_small"])
def test_golden_bytes_under_a_profile_or_trace_hook(hook, argv, name, tmp_path):
    # cProfile, coverage and pdb set such hooks; the stream builds once
    # failed under them, and a verify run then reported exceptions
    out = tmp_path / name
    previous = sys.gettrace(), sys.getprofile()
    (sys.setprofile if hook == "profile" else sys.settrace)(lambda *args: None)
    try:
        code = main([*argv, "--out", str(out)])
    finally:
        sys.settrace(previous[0])
        sys.setprofile(previous[1])
    assert code == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_verify_fails_on_uncertified_weight(tmp_path):
    # check_regular rejects this weight; the mixed bound needs its constant
    out = tmp_path / "rep.json"
    assert main(["verify", "--omega", "tabulated:0,0;1,1;2,4",
                 "--suite", "derivative_characterizations",
                 "--pairs", "256", "--points", "64", "--out", str(out)]) == 1
    (rep,) = json.loads(out.read_text())["reports"]
    assert not rep["passed"]
    assert all("omega_not_regular" in rec["failures"] for rec in rep["records"])
    assert all("mixed_bound_constant" not in rec["checks"] for rec in rep["records"])


@pytest.mark.parametrize("text, argv", [
    ('{"seed": 1', ["verify", "--config", "{file}"]),
    ("1", ["verify", "--config", "{file}"]),
    ("[]", ["report", "--in", "{file}"]),
    (None, ["star", "--inverse", "const_real", "--order", "-1"]),
    ('{"seed": "abc"}', ["verify", "--config", "{file}"]),
    ('{"seed": true}', ["verify", "--config", "{file}"]),
    ('{"n_pairs": 2}', ["verify", "--config", "{file}"]),
    ('{"n_pairs": 1e400}', ["verify", "--config", "{file}"]),
    ('{"n_points": 64.0}', ["verify", "--config", "{file}"]),
    ('{"nodes": 8}', ["verify", "--config", "{file}"]),
    ('{"slice_i": "abc"}', ["verify", "--config", "{file}"]),
    ('{"slice_k": [0, 0, 0]}', ["verify", "--config", "{file}"]),
    ('{"a_coeff": [0, 1, 0]}', ["verify", "--config", "{file}"]),
    ('{"suites": 5}', ["verify", "--config", "{file}"]),
    ('{"suites": [1]}', ["verify", "--config", "{file}"]),
    ('{"max_radius": NaN}', ["verify", "--config", "{file}"]),
    ('{"window": Infinity}', ["verify", "--config", "{file}"]),
    ('{"omega_spec": 5}', ["verify", "--config", "{file}"]),
    ('{"corpus_path": 5}', ["verify", "--config", "{file}"]),
    (None, ["verify", "--pairs", "2"]),
    (None, ["verify", "--window", "nan"]),
    (None, ["norm", "--name", "identity", "--estimator", "slice", "--pairs", "2"]),
    (None, ["norm", "--name", "identity", "--estimator", "slice", "--rho", "1.5"]),
    (None, ["norm", "--name", "identity", "--estimator", "slice", "--eps", "nan"]),
    (None, ["norm", "--name", "identity", "--estimator", "slice", "--seed", "-1"]),
    (None, ["norm", "--name", "identity", "--estimator", "slice", "--slice", "i=inf,0,0"]),
    (None, ["norm", "--name", "identity", "--estimator", "slice", "--slice", "i=1e300,1e300,0"]),
    (None, ["eval", "--at", "nan,0,0,0"]),
    ('{"f": [[NaN, 0, 0, 0]]}', ["eval", "--file", "{file}", "--at", "0,0,0,0"]),
    (None, ["majorant-check", "--omega", "tabulated:0,0;nan,1"]),
    (None, ["majorant-check", "--omega", "power:inf"]),
    (None, ["majorant-check", "--omega", "power:0.5", "--nodes", "0"]),
    (None, ["majorant-check", "--omega", "power:0.5", "--nodes", "2"]),
    (None, ["majorant-check", "--omega", "power:0.5", "--nodes", "-3"]),
    (None, ["norm", "--name", "identity", "--estimator", "slice", "--omega", "scaled:0:power:0.5"]),
    (None, ["norm", "--name", "identity", "--estimator", "global", "--omega", "scaled:0:power:0.5"]),
    (None, ["norm", "--name", "identity", "--estimator", "slice", "--omega", "tabulated:0,0;2,0"]),
    (None, ["norm", "--name", "identity", "--estimator", "global",
            "--omega", "tabulated:0,0;1,0;2,1"]),
    (None, ["norm", "--name", "identity", "--estimator", "derivative-full",
            "--omega", "scaled:0:power:0.5"]),
    (None, ["norm", "--name", "identity", "--estimator", "schwarz-series",
            "--omega", "tabulated:0,0;2,0"]),
    (None, ["verify", "--omega", "scaled:0:power:0.5"]),
    (None, ["verify", "--omega", "scaled:1e-320:power:0.5", "--pairs", "256",
            "--points", "64", "--nodes", "512"]),
    (None, ["verify", "--slice", "x=1,0,0"]),
    (None, ["norm", "--name", "identity", "--estimator", "slice", "--slice", "j=0,1,0"]),
    (None, ["norm", "--name", "identity", "--estimator", "component", "--omega2", ""]),
    (None, ["verify", "--window", "0.5"]),
    ('{"window": 0.99}', ["verify", "--config", "{file}"]),
    (None, ["verify", "--suite", ","]),
    (None, ["verify", "--suite", ""]),
    ('{"suites": []}', ["verify", "--config", "{file}"]),
    ("{}", ["verify", "--corpus", "{file}"]),
    *((text, argv) for text in (b"\xff\xfe{}", b"[" * 100000)
      for argv in (["report", "--in", "{file}"], ["verify", "--corpus", "{file}"],
                   ["verify", "--config", "{file}"],
                   ["eval", "--file", "{file}", "--at", "0,0,0,0"])),
    ('{"seed": ' + "9" * 5000 + "}", ["verify", "--config", "{file}"]),
    *((text, ["report", "--in", "{file}", "--format", fmt])
      for text in ("{}", '{"all_passed": true}', '{"f": [[1, 0, 0, 0]]}',
                   '{"all_passed": "yes", "reports": []}',
                   '{"all_passed": true, "reports": [{"suite": "x", "passed": false, '
                   '"notes": ["error: boom"], "records": []}]}',
                   '{"all_passed": true, "reports": []}')
      for fmt in ("csv", "json")),
], ids=["truncated_config", "config_not_object", "report_not_object", "negative_order",
        "config_seed_str", "config_seed_bool", "config_pairs_2", "config_pairs_inf",
        "config_points_float", "config_nodes_8", "config_slice_str", "config_slice_zero",
        "config_a_short", "config_suites_int", "config_suites_not_str", "config_radius_nan",
        "config_window_inf", "config_omega_not_str", "config_corpus_not_str",
        "verify_pairs_2", "verify_window_nan", "norm_pairs_2", "norm_rho_1_5",
        "norm_eps_nan", "norm_seed_negative", "norm_slice_inf", "norm_slice_overflow",
        "eval_at_nan", "spec_nan", "tabulated_nan", "power_inf", "panels_0", "panels_2",
        "panels_negative", "norm_scaled_zero", "global_scaled_zero", "norm_table_zero",
        "global_table_zero_knot", "derivative_scaled_zero", "schwarz_table_zero",
        "verify_scaled_zero", "verify_scaled_subnormal", "verify_slice_x", "norm_slice_j",
        "norm_omega2_empty", "verify_window_half", "config_window_below_1", "verify_suite_comma",
        "verify_suite_empty", "config_suites_empty", "corpus_spec_empty",
        *(f"{kind}_{where}" for kind in ("not_utf8", "nested_too_deep")
          for where in ("report", "corpus", "config", "eval")),
        "config_int_too_long",
        *(f"report_{kind}_{fmt}" for kind in ("empty", "no_reports", "function_spec",
                                               "passed_not_bool", "verdict_disagrees",
                                               "no_suites")
          for fmt in ("csv", "json"))])
def test_bad_input_exits_two(text, argv, tmp_path, capsys):
    path = tmp_path / "input.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    assert main([a.replace("{file}", str(path)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("extra", [["--rho", "0.9999999999999999"],
                                   ["--rho", "0.9999999999999998", "--points", "4096"]])
def test_a_radius_that_rounds_onto_the_sphere_exits_two(extra, capsys):
    # these radii put points of the cap circle at |x| = 1, where the gap
    # 1 - |x| is 0: refused, not reported as a null value with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["norm", "--name", "identity", "--estimator", "derivative-full", *extra])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "max_radius" in err


_TOO_BIG = str(10 ** 13)  # numpy refuses the allocation before touching memory
_BEYOND_ADDRESSES = str(4 * 10 ** 18)  # its byte count overflows: no MemoryError


@pytest.mark.parametrize("argv", [
    ["star", "--inverse", "exp_taylor", "--order", _TOO_BIG],
    ["norm", "--name", "identity", "--estimator", "global", "--pairs", _TOO_BIG],
    ["norm", "--name", "identity", "--estimator", "schwarz-series", "--points", _TOO_BIG],
    ["majorant-check", "--omega", "tabulated:0,0;1,1;2,1.5", "--nodes", _BEYOND_ADDRESSES],
    ["star", "--inverse", "exp_taylor", "--order", _BEYOND_ADDRESSES],
    ["norm", "--name", "identity", "--estimator", "global", "--pairs", _BEYOND_ADDRESSES],
    ["norm", "--name", "identity", "--estimator", "schwarz-series", "--points", _BEYOND_ADDRESSES],
    ["verify", "--nodes", str(10 ** 20)],
], ids=["star_order", "global_pairs", "schwarz_points",
        "majorant_nodes_overflow", "star_order_overflow", "global_pairs_overflow",
        "schwarz_points_overflow", "verify_nodes_overflow"])
def test_oversized_sizes_exit_two(argv, capsys):
    assert main([*argv, "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_flags_override_config_fields(tmp_path):
    # the file gives the fields and each flag beside it overrides one: the
    # run is the one its flags alone would make, config block included
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 3, "n_pairs": 64, "suites": ["modulus_membership"]}')
    out, ref = tmp_path / "rep.json", tmp_path / "ref.json"
    assert main(["verify", "--config", str(path), "--seed", "7", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 7
    assert main(["verify", "--seed", "7", "--pairs", "64", "--suite", "modulus_membership",
                 "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_valid_config_keeps_its_serialized_bytes(tmp_path):
    # JSON ints where floats are expected are valid and serialize unchanged
    path = tmp_path / "cfg.json"
    path.write_text('{"slice_i": [1, 0, 0], "window": 20, "suites": ["no_such_suite"]}')
    out = tmp_path / "rep.json"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 1
    cfg = json.loads(out.read_text())["config"]
    assert cfg["slice_i"] == [1.0, 0.0, 0.0] and cfg["window"] == 20
    assert '"window": 20,' in out.read_text()


# --- fuzzing ---------------------------------------------------------------------

_SIZE = st.sampled_from(["4", "7", "16", "64", "0", "-1", "3", "nan", "inf", "abc", ""])
_REAL = st.sampled_from(["0.5", "0.9", "1e-3", "0", "-1", "1.5", "nan", "inf", "abc", "1e300"])
_POINT = st.sampled_from(["0.3,0.4,0,0", "0,0,0,0", "1,2", "nan,0,0,0", "inf,0,0,0",
                          "a,b,c,d", "1e300,1e300,0,0", "-0.9,0,0,0.1"])
_UNIT = st.sampled_from(["1,0,0", "0,1,1", "0,0,0", "nan,0,0", "inf,1,0", "1,2",
                         "1e300,1e300,0", "1e-170,0,0", "x,y,z"])
_NAME = st.sampled_from(["identity", "exp_taylor", "cubic_basis", "random_0", "const_real",
                         "linear_mix", "missing", ""])
_OMEGA = st.sampled_from(["power:0.5", "power:0.25+power:0.75", "scaled:0:power:0.5",
                          "tabulated:0,0;1,1;2,1.5", "tabulated:0,0;1,1;2,4", "power:0",
                          "power:nan", "bogus", ""])
_REPORT = st.sampled_from([
    '{"all_passed": true, "reports": []}', '{"all_passed": false}', "[]", "{!", "",
    '{"reports": 5}', '{"reports": [5]}', '{"reports": [{"suite": "x"}]}',
    '{"reports": [{"suite": "x", "passed": true, "notes": [], "records": [{}]}]}',
])


def _optional(flag: str, values) -> st.SearchStrategy:
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _cli_argv(draw) -> list[str]:
    """An argv for eval, star, norm, report, verify or majorant-check with
    small valid or invalid values; sizes stay small, since a large valid
    order or plan is slow."""
    command = draw(st.sampled_from(
        ["eval", "star", "norm", "report", "verify", "majorant-check"]))
    if command == "eval":
        return ["eval", "--at", draw(_POINT), *draw(_optional("--name", _NAME))]
    if command == "star":
        if draw(st.booleans()):
            return ["star", "--inverse", draw(_NAME), "--order", draw(_SIZE)]
        return ["star", *draw(_optional("--left", _NAME)), *draw(_optional("--right", _NAME))]
    if command == "report":
        return ["report", "--in", draw(_REPORT), "--format", draw(st.sampled_from(["json", "csv"]))]
    if command == "verify":
        return ["verify", "--pairs", draw(_SIZE), "--points", draw(_SIZE),
                "--nodes", draw(_SIZE), "--omega", draw(_OMEGA),
                "--omega-small", draw(_OMEGA), "--window", draw(_REAL),
                *draw(_optional("--slice", st.tuples(st.sampled_from("ik"), _UNIT)
                                .map(lambda ku: f"{ku[0]}={ku[1]}")))]
    if command == "majorant-check":
        return ["majorant-check", "--omega", draw(_OMEGA), "--nodes", draw(_SIZE)]
    estimator = draw(st.sampled_from([*_ESTIMATORS, "bogus"]))
    return ["norm", "--name", draw(_NAME), "--estimator", estimator,
            "--pairs", draw(_SIZE), "--points", draw(_SIZE), "--eps", draw(_REAL),
            "--rho", draw(_REAL), "--seed", draw(_SIZE), "--omega", draw(_OMEGA),
            *draw(_optional("--slice", _UNIT.map(lambda u: "i=" + u)))]


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


@given(argv=_cli_argv())
@example(argv=["norm", "--name", "identity", "--estimator", "slice", "--pairs", "4",
               "--points", "4", "--eps", "0.5", "--rho", "0.5", "--seed", "4",
               "--omega", "scaled:0:power:0.5"])
@settings(deadline=None, max_examples=150)
def test_cli_fuzz_exits_cleanly(argv, report_dir):
    if argv[0] == "report":  # the drawn text goes to a file
        path = report_dir / "in.json"
        path.write_text(argv[2])
        argv = [*argv[:2], str(path), *argv[3:]]
    try:
        code = main([*argv, "--out", os.devnull])
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
        assert code == 2
    assert code in (0, 1, 2)
