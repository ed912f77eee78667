import inspect
import json
import math
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import slicereg.lipschitz
import slicereg.majorant
import slicereg.poisson
import slicereg.verify
from slicereg.cli import RunConfig, ValidationError, main
from slicereg.lipschitz import SamplePlan
from slicereg.majorant import PowerMajorant
from slicereg.quaternion import UNIT_E1, ImaginaryUnit, slice_points_array
from slicereg.series import SliceSeries, SplitSeries, split
from slicereg.verify import (
    ALL_SUITES,
    FunctionRecord,
    VerificationReport,
    cone_admissible_mask,
    default_corpus,
    run_suite,
)


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


def _store_keys(keys, kind, stream=None):
    """The keys (stream, kind, ...) among keys, of one stream or of any:
    kind "weight" for the pair weights, "moduli" for a member's blocks."""
    return [k for k in keys if isinstance(k, tuple) and k[1:2] == (kind,)
            and stream in (None, k[0])]


def _one_suite(name, **fields):
    (report,) = run_suite(RunConfig(suites=(name,), **fields))
    return report


def test_default_corpus_shape(corpus):
    names = [m.name for m in corpus]
    assert names == [
        "const_real", "const_quat", "identity", "square", "cubic_basis",
        "linear_mix", "exp_taylor", "random_0", "random_1",
    ]
    assert [m.name for m in corpus if m.intrinsic] == [
        "const_real", "identity", "square", "exp_taylor",
    ]
    # deterministic and seed-sensitive
    again = default_corpus()
    for a, b in zip(corpus, again):
        assert np.array_equal(a.series.array, b.series.array)
    other = default_corpus(seed=7)
    assert not np.array_equal(
        corpus[-1].series.array, other[-1].series.array
    )
    # the truncated exponential carries 13 real coefficients 1/n!
    exp = dict((m.name, m) for m in corpus)["exp_taylor"]
    assert exp.series.degree == 12
    assert exp.series.coefficients[3].x0 == pytest.approx(1.0 / 6.0)


def test_inclusion_chain(corpus):
    rep = _one_suite("inclusion_chain")
    assert rep.passed
    assert len(rep.records) == len(corpus)
    for rec in rep.records:
        assert rec.checks["global_over_6c3"] <= 1.0 + 1e-9


def test_algebraic_closure():
    rep = _one_suite("algebraic_closure")
    assert rep.passed


def test_linear_closure_fails_where_only_its_bound_overflows(tmp_path):
    # under omega = t the partner q -> 3e306 q^64 has a constant about 64
    # times its largest increment, so (|a| c_f + c_g) w1 overflows on the
    # widest pairs while every increment, and the small member's combine
    # bounds, stay finite: its linear check fails, and nothing warns
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"small": [[0, 0, 0, 0], [1e-3, 0, 0, 0]],
                                "steep": [[0, 0, 0, 0]] * 64 + [[3e306, 0, 0, 0]]}))
    config = RunConfig(corpus_path=str(path), suites=("algebraic_closure",),
                       omega_spec="power:1", omega2_spec="power:1",
                       n_pairs=256, n_points=64, nodes=512)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (rep,) = run_suite(config)
    small = rep.records[0]
    assert small.name == "small" and small.failures == ["linear_closure_violation"]
    assert small.checks["linear_closure_violation"] == math.inf
    assert all(math.isfinite(small.checks[f"combine_component{k}_violation"]) for k in (1, 2))


def test_intrinsic_invariance():
    rep = _one_suite("intrinsic_invariance")
    assert rep.passed
    assert len(rep.records) == 4


def test_slice_independence():
    rep = _one_suite("slice_independence")
    assert rep.passed
    for rec in rep.records:
        if "norm_ratio" in rec.checks and rec.checks["norm_ratio"] > 0:
            assert 1.0 / 2.2 <= rec.checks["norm_ratio"] <= 2.2


def test_modulus_membership():
    assert _one_suite("modulus_membership").passed


def test_norm_equivalences():
    rep = _one_suite("norm_equivalences", nodes=1024)
    assert rep.passed
    by_name = {rec.name: rec for rec in rep.records}
    assert "constant member: vacuous pass" in by_name["const_real"].notes
    assert by_name["identity"].checks["max_over_min"] <= 20.0


def test_norm_equivalences_fails_on_uncertified_square(tmp_path):
    # power:0.5 is certified, its square power:1 is not; nothing else is computed
    out = tmp_path / "rep.json"
    assert main(["verify", "--suite", "norm_equivalences", "--omega-small", "power:0.5",
                 "--out", str(out)]) == 1
    (rep,) = json.loads(out.read_text())["reports"]
    assert len(rep["records"]) == 9
    for rec in rep["records"]:
        assert rec["failures"] == ["omega_not_regular"]
        assert list(rec["checks"]) == ["omega_not_regular"]


def test_derivative_characterizations():
    rep = _one_suite("derivative_characterizations")
    assert rep.passed
    for rec in rep.records:
        if "growth_sandwich_min_slack" in rec.checks:
            assert rec.checks["growth_sandwich_min_slack"] >= -1e-8


def test_poisson_characterization():
    rep = _one_suite("poisson_characterization", nodes=1024)
    assert rep.passed
    by_name = {rec.name: rec for rec in rep.records}
    assert "constant member: vacuous pass" in by_name["const_quat"].notes
    ratio = by_name["identity"].checks["defect_over_lip"]
    assert 1.0 / 20.0 <= ratio <= 20.0


def test_cone_corollary():
    rep = _one_suite("cone_corollary", nodes=1024)
    assert rep.passed
    for rec in rep.records:
        assert rec.checks["rejected"] > 0  # off-slice samples refused


def test_member_exception_fails_only_its_record(corpus, monkeypatch):
    config = RunConfig(n_pairs=256, n_points=64, suites=("slice_independence",))
    square = next(m for m in config.corpus if m.name == "square")
    real_slice_norm = slicereg.verify.slice_norm

    def slice_norm(series, *args):
        if series is square.series:
            raise RuntimeError("slice norm refused square")
        return real_slice_norm(series, *args)

    monkeypatch.setattr(slicereg.verify, "slice_norm", slice_norm)
    (rep,) = run_suite(config)
    assert [rec.name for rec in rep.records] == [m.name for m in corpus]
    by_name = {rec.name: rec for rec in rep.records}
    failed = by_name.pop("square")
    assert failed.failures == ["exception:RuntimeError"]
    assert failed.notes == ["slice norm refused square"]
    assert all(rec.passed for rec in by_name.values())
    assert not rep.passed


def test_cone_mask_oracle():
    qs = np.array([
        [0.3, 0.4, 0.0, 0.0],   # upper half of the e1 slice
        [0.3, -0.4, 0.0, 0.0],  # lower half
        [0.3, 0.0, 0.0, 0.0],   # real axis: admissible for both signs
        [0.3, 0.2, 0.2, 0.0],   # off the slice: never admissible
    ])
    assert list(cone_admissible_mask(qs, UNIT_E1, +1.0)) == [True, False, True, False]
    assert list(cone_admissible_mask(qs, UNIT_E1, -1.0)) == [False, True, True, False]


def _cone_grid_mask(qs, i, sign):
    """The cone condition tested angle by angle on a 64-point grid, as
    (<vec q, i> - sign*|vec q|) sin t <= 1e-12 (1 + |q|)."""
    t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    vec = qs[:, 1:]
    along = vec @ np.array([i.v1, i.v2, i.v3])
    gap = (along - sign * np.linalg.norm(vec, axis=1))[:, None] * np.sin(t)[None, :]
    scale = 1.0 + np.linalg.norm(qs, axis=1)
    return np.all(gap <= 1e-12 * scale[:, None], axis=1)


@pytest.mark.parametrize("unit", [UNIT_E1, ImaginaryUnit.from_vector(1.0, 1.0, 1.0)],
                         ids=["e1", "i111"])
def test_cone_mask_equals_angle_grid(unit):
    # the grid holds t = pi/2 and 3pi/2, where sin is exactly +-1, and
    # |g sin t| <= |g| at every other angle: the grid test is |g| <= tol
    rng = np.random.default_rng(5)
    zs = 0.9 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    on_slice = slice_points_array(unit, zs)
    # perpendicular offsets from 1e-13 to 1e-4 straddle the tolerance
    perp = np.cross(rng.normal(size=(200, 3)), unit.components())
    perp /= np.linalg.norm(perp, axis=1, keepdims=True)
    near = on_slice.copy()
    near[:, 1:] += np.geomspace(1e-13, 1e-4, 200)[:, None] * perp
    ball = rng.normal(size=(200, 4))
    ball *= 0.9 * rng.uniform(size=(200, 1)) / np.linalg.norm(ball, axis=1, keepdims=True)
    for qs in (on_slice, near, ball):
        for sign in (1.0, -1.0):
            assert np.array_equal(cone_admissible_mask(qs, unit, sign),
                                  _cone_grid_mask(qs, unit, sign))
    assert 0 < np.sum(cone_admissible_mask(near, unit, 1.0)) < np.sum(zs.imag > 0)


# --- the batch runner -----------------------------------------------------------

def test_run_suite_default_all_pass():
    reports = run_suite(RunConfig())
    assert [r.suite for r in reports] == list(ALL_SUITES)
    assert all(r.passed for r in reports)


def test_run_suite_subset_and_unknown():
    reports = run_suite(RunConfig(suites=("inclusion_chain", "no_such_suite")))
    assert len(reports) == 2
    assert reports[0].passed
    assert not reports[1].passed
    assert any(n.startswith("error:") for n in reports[1].notes)
    with pytest.raises(ValidationError):
        RunConfig(suites=())


def test_each_run_builds_its_arrays_once(monkeypatch):
    # every suite of a run reads one plan's store; a second RunConfig has its
    # own plan and builds everything again, so nothing outlives its run
    builds = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            builds[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(slicereg.lipschitz, "_disc_pairs")  # two caps: max_radius and 1
    count(slicereg.verify, "defect_sup")  # 9 members at power 1; power 2 is exact
    plans = []
    for _ in range(2):
        config = RunConfig(n_pairs=256, n_points=64, nodes=512)
        assert all(getattr(config, name) is getattr(config, name)
                   for name in ("plan", "omega", "omega2", "omega_small", "i", "k"))
        assert all(r.passed for r in run_suite(config))
        assert builds == {"_disc_pairs": 2, "defect_sup": 9}
        builds.clear()
        plans.append(config.plan)
    assert plans[0] == plans[1] and plans[0] is not plans[1]


def test_a_run_builds_the_circle_points_once(monkeypatch):
    # boundary_norm and seminorms_N read the circle points and weights from
    # the plan: the angles are drawn once per run, for the stored points
    config = RunConfig(n_pairs=256, n_points=64, nodes=512)
    calls = []
    real_angles = slicereg.lipschitz.circle_pair_angles

    def angles(plan):
        calls.append(plan)
        return real_angles(plan)
    monkeypatch.setattr(slicereg.lipschitz, "circle_pair_angles", angles)
    assert all(r.passed for r in run_suite(config))
    assert len(calls) == 1 and calls[0] is config.plan
    weights = {k[2] for k in _store_keys(config.plan.__dict__["_store"], "weight", "circle")}
    assert weights == {config.omega, config.omega_small}


def test_each_pair_weight_is_built_once_per_run(monkeypatch):
    # every check reads its weights through pair_weights, which stores each
    # (stream, "weight", omega) on first use; N3 reads the unit-disc pairs
    # there too, but takes its weight per member, unstored
    config = RunConfig(n_pairs=256, n_points=64, nodes=512)
    built = []
    real_memo = SamplePlan.memo

    def memo(plan, key, build):
        def counted():
            built.append(key)
            return build()
        return real_memo(plan, key, counted)
    monkeypatch.setattr(SamplePlan, "memo", memo)
    assert all(r.passed for r in run_suite(config))
    weights = Counter(_store_keys(built, "weight"))
    assert set(weights.values()) == {1}
    assert {k[0] for k in weights} == {"slice", "circle"}
    assert ("circle", "weight", config.omega_small) in weights


def test_each_member_builds_its_increments_once_per_unit(monkeypatch):
    # the slice estimators of every suite read one stored block per member
    # and unit: i for every member, k for the members slice_independence
    # reads (intrinsic_invariance reads k too, in the same member step); the
    # circle functionals read one stored circle block per member, for i
    config = RunConfig(n_pairs=256, n_points=64, nodes=512)
    names = {m.series.array.tobytes(): m.name for m in config.corpus}
    slice_z1 = slicereg.lipschitz.slice_pair_coords(config.plan)[0]
    builds = Counter()
    real = slicereg.lipschitz._pair_moduli

    def counted(f, i, z1, z2):
        stream = "slice" if z1 is slice_z1 else "circle"
        builds[names[f.array.tobytes()], i, stream] += 1
        # at most one member's values are alive: any stored moduli are f's
        store = config.plan.__dict__["_store"]
        assert all(key[2] is f for key in _store_keys(store, "moduli"))
        return real(f, i, z1, z2)
    monkeypatch.setattr(slicereg.lipschitz, "_pair_moduli", counted)
    assert all(r.passed for r in run_suite(config))
    assert builds == {**{(m.name, unit, "slice"): 1
                         for m in config.corpus for unit in (config.i, config.k)},
                      **{(m.name, config.i, "circle"): 1 for m in config.corpus}}


def test_each_member_is_evaluated_once_on_the_slice_and_circle_pairs(monkeypatch):
    # modulus_membership reads the stored slice moduli, boundary_norm and
    # seminorms_N the stored circle moduli: a member's values at the slice
    # pair points for unit i and at the circle points e1, e2 are computed
    # once per run. algebraic_closure is left out: it evaluates its partner,
    # another member, on the slice pairs itself
    suites = tuple(name for name in ALL_SUITES if name != "algebraic_closure")
    config = RunConfig(n_pairs=256, n_points=64, nodes=512, suites=suites)
    plan = config.plan
    points = dict(zip(("z1", "z2", "e1", "e2"), (*slicereg.lipschitz.slice_pair_coords(plan),
                                                 *slicereg.lipschitz.pair_weights(plan, "circle"))))
    names = {split(m.series, config.i).C.tobytes(): m.name for m in config.corpus}
    calls = Counter()
    real = SplitSeries.at

    def at(self, z):
        label = next((label for label, p in points.items() if p is z), None)
        if label and self.i is config.i:
            calls[names.get(self.C.tobytes()), label] += 1
        return real(self, z)
    monkeypatch.setattr(SplitSeries, "at", at)
    assert all(r.passed for r in run_suite(config))
    assert calls == {(m.name, label): 1 for m in config.corpus for label in points}


def test_setups_build_what_every_member_shares(monkeypatch):
    # the cone's admissible points come from its set-up, once per sign; the
    # only stored defect sup is the power-1 one the Poisson and cone suites
    # share; and run_suite returns the reports the set-ups built
    config = RunConfig(n_pairs=256, n_points=64, nodes=512)
    assert len(config.corpus) == 9
    signs, keys, built = [], [], []

    def spy(owner, name, seen, pick):
        real = getattr(owner, name)

        def wrapper(*args):
            result = real(*args)
            seen.append(pick(args, result))
            return result
        monkeypatch.setattr(owner, name, wrapper)

    spy(slicereg.verify, "cone_admissible_mask", signs, lambda args, _: args[2])
    spy(SamplePlan, "memo", keys, lambda args, _: args[1])
    for name in ALL_SUITES:
        spy(slicereg.verify, f"verify_{name}", built, lambda _, report: report)
    reports = run_suite(config)
    assert all(r.passed for r in reports)
    assert signs == [1.0, -1.0]
    defect_keys = [key for key in keys if key[0] == "defect_sup"]
    assert len({id(key[1]) for key in defect_keys}) == len(config.corpus)
    assert {key[2:] for key in defect_keys} == {(config.omega, config.i, config.nodes)}
    assert len(reports) == len(built) and all(r is b for r, b in zip(reports, built))


def test_a_run_drops_every_member_value():
    # streams and weights stay with the plan; no value keyed by a series does
    config = RunConfig(n_pairs=256, n_points=64, nodes=512)
    assert all(r.passed for r in run_suite(config))
    store = config.plan.__dict__["_store"]
    assert store and not [key for key in store if isinstance(key, tuple)
                          and any(isinstance(x, SliceSeries) for x in key)]


def test_check_exception_fails_only_that_suites_record(monkeypatch):
    # member-major: square's other suites still run, and pass, in its step
    config = RunConfig(n_pairs=256, n_points=64, nodes=512)
    square = next(m for m in config.corpus if m.name == "square").series.array
    real = slicereg.verify.global_norm  # read by inclusion_chain only

    def global_norm(series, *args):
        if np.array_equal(series.array, square):
            raise RuntimeError("global norm refused square")
        return real(series, *args)
    monkeypatch.setattr(slicereg.verify, "global_norm", global_norm)
    reports = run_suite(config)
    assert [r.suite for r in reports] == list(ALL_SUITES)
    failed = [(r.suite, rec.name) for r in reports for rec in r.records if not rec.passed]
    assert failed == [("inclusion_chain", "square")]
    (rec,) = [rec for rec in reports[0].records if rec.name == "square"]
    assert rec.failures == ["exception:RuntimeError"]
    assert rec.notes == ["global norm refused square"]
    assert sum(rec.name == "square" for r in reports for rec in r.records) == len(ALL_SUITES)


def test_setup_exception_fails_only_its_suite(monkeypatch):
    def refused(*args):
        raise RuntimeError("no cone sample")
    monkeypatch.setattr(slicereg.verify, "verify_cone_corollary", refused)
    reports = run_suite(RunConfig(n_pairs=256, n_points=64, nodes=512))
    assert [r.suite for r in reports] == list(ALL_SUITES)
    *rest, cone = reports
    assert all(r.passed for r in rest)
    assert not cone.passed and cone.records == []
    assert cone.notes == ["error: RuntimeError: no cone sample"]


def test_duplicate_and_unknown_suites_keep_their_positions():
    reports = run_suite(RunConfig(n_pairs=256, n_points=64, nodes=512,
                                  suites=("inclusion_chain", "inclusion_chain", "bogus")))
    assert [r.suite for r in reports] == ["inclusion_chain", "inclusion_chain", "bogus"]
    assert reports[0].passed and reports[0].to_dict() == reports[1].to_dict()
    assert reports[2].notes == ["error: unknown suite 'bogus'"] and not reports[2].passed


def test_intrinsic_suite_without_an_intrinsic_member_fails(tmp_path):
    # the filter leaves nothing to check: the suite fails instead of passing
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"q": [[0, 1, 0, 0], [0, 0, 0.3, 0]]}))
    out = tmp_path / "rep.json"
    assert main(["verify", "--corpus", str(spec), "--suite", "intrinsic_invariance",
                 "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is False
    (rep,) = doc["reports"]
    assert rep["records"] == [] and rep["passed"] is False
    assert rep["notes"] == ["error: no intrinsic member in the corpus"]


def test_a_run_keeps_no_poisson_kernel(monkeypatch):
    # the suites take on-slice Poisson means spectrally: the direct kernel
    # sum is refused, no (points, nodes) kernel is built, even for a moment,
    # and none is left in the plan's store
    def refused(*args, **kwargs):
        raise AssertionError("direct Poisson kernel sum on the slice")
    monkeypatch.setattr(slicereg.poisson, "poisson_integral", refused)
    config = RunConfig(n_pairs=256, n_points=1024, nodes=8192)
    kernel_bytes = 8 * max(16, config.n_points // 16) * 8 * config.nodes  # seminorms grid
    tracemalloc.start()
    try:
        reports = run_suite(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < kernel_bytes / 2
    stored = [a for v in config.plan.__dict__["_store"].values()
              for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    assert stored and all(a.size < config.nodes for a in stored)


def test_each_weight_is_certified_once_per_run(monkeypatch, tmp_path):
    # the default run certifies omega_small, its square and omega, each a
    # power, with no decomposition and no cell refinement, and the report
    # stays the golden one
    certified = []
    real = slicereg.verify.check_regular

    def counted(omega, *args, **kwargs):
        certified.append(omega)
        return real(omega, *args, **kwargs)

    def refused(*args):
        raise AssertionError("a weight was decomposed or bracketed in the default run")
    monkeypatch.setattr(slicereg.verify, "check_regular", counted)
    monkeypatch.setattr(slicereg.majorant, "_Pieces", refused)
    monkeypatch.setattr(slicereg.majorant, "_bracket", refused)
    out = tmp_path / "verify_default.json"
    assert main(["verify", "--out", str(out)]) == 0
    assert certified == [PowerMajorant(0.25), PowerMajorant(0.5), PowerMajorant(0.5)]
    assert out.read_bytes() == (Path(__file__).parent / "data" / "verify_default.json").read_bytes()


def test_equal_weights_share_one_stored_array():
    # omega and omega2 are equal values, so the store keys them once: the
    # weight itself and the summed weight
    config = RunConfig(omega_spec="scaled:2:power:0.5", omega2_spec="scaled:2:power:0.5",
                       suites=("inclusion_chain",), n_pairs=256, n_points=64, nodes=512)
    assert config.omega == config.omega2 and config.omega is not config.omega2
    (report,) = run_suite(config)
    assert report.passed
    weights = [key[2] for key in _store_keys(config.plan.__dict__["_store"], "weight")]
    assert weights == [config.omega, config.omega + config.omega2]


def test_run_suite_deterministic():
    cfg = RunConfig(suites=("slice_independence",), n_pairs=256)
    a = run_suite(cfg)[0].to_dict()
    b = run_suite(cfg)[0].to_dict()
    assert a == b


def test_every_suite_is_one_function_of_the_config():
    # a suite missing from ALL_SUITES, or a leftover set-up or wrapper, fails here
    functions = {name for name, value in vars(slicereg.verify).items()
                 if name.startswith(("verify_", "setup_")) and callable(value)}
    assert functions == {f"verify_{name}" for name in ALL_SUITES}
    for name in functions:
        params = inspect.signature(getattr(slicereg.verify, name)).parameters
        assert list(params) == ["config"], name


def test_check_fails_a_non_finite_value():
    rec = FunctionRecord("demo")
    rec.check("inf", math.inf, True)
    rec.check("nan", math.nan, True)
    rec.check("finite", 1.0, True)
    assert rec.failures == ["inf", "nan"]


def test_report_and_record_plumbing():
    rec = FunctionRecord("demo")
    rec.check("fine", 1.0, True)
    rec.measure("count", 3)
    assert rec.passed and rec.checks["count"] == 3.0
    rec.check("bad", 2.0, False)
    assert not rec.passed and rec.failures == ["bad"]
    rep = VerificationReport(suite="s", records=[rec], tolerances={"t": 1.0})
    assert not rep.passed
    d = rep.to_dict()
    assert d["suite"] == "s"
    assert d["records"][0]["checks"]["bad"] == 2.0
