import dataclasses
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
import slicereg.series
import slicereg.verify
from slicereg.cli import RunConfig, ValidationError, main
from slicereg.lipschitz import SamplePlan
from slicereg.majorant import PowerMajorant
from slicereg.quaternion import UNIT_E1, ImaginaryUnit, slice_points_array
from slicereg.series import _BLOCK, SliceSeries, SplitSeries, split
from slicereg.verify import (
    ALL_SUITES,
    FunctionRecord,
    VerificationReport,
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
        assert 1.0 / 2.2 <= rec.checks["ratio"] <= 2.2


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
        assert rec.checks["growth_sandwich_slack"] >= -1e-8
        assert rec.checks["growth_quadratic_slack"] >= -1e-8


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
def test_cone_sign_split_equals_angle_grid(unit, monkeypatch):
    # the cone suite samples only the slice, branch s holding the points
    # with s*Im z >= 0: the grid holds t = pi/2 and 3pi/2, where sin is
    # exactly +-1, and |g sin t| <= |g| at every other angle, so the grid
    # test is |g| <= tol, and a slice point x + y i has |g| = 2|y| or 0
    config = RunConfig(n_pairs=256, n_points=64, nodes=512, slice_i=unit.components())
    built = []
    monkeypatch.setattr(slicereg.verify, "slice_powers", lambda zs, nodes: built.append(zs))
    slicereg.verify.verify_cone_corollary(config)
    cap = slicereg.poisson.resolved_cap(config.max_radius, config.nodes)
    sample = slicereg.lipschitz.disc_points(config.plan, cap=cap)[:24]
    rng = np.random.default_rng(5)
    zs = np.concatenate([sample, [0.5, -0.25], 0.9 * np.sqrt(rng.uniform(size=200))
                         * np.exp(2j * np.pi * rng.uniform(size=200))])
    on_slice = slice_points_array(unit, zs)
    # an offset d off the slice gives |g| >= |vec q| - |<vec q, i>|, about
    # d^2/(2|y|) >= 5e-11 at d >= 1e-5, above the tolerance 2e-12
    perp = np.cross(rng.normal(size=(zs.size, 3)), unit.components())
    perp /= np.linalg.norm(perp, axis=1, keepdims=True)
    near = on_slice.copy()
    near[:, 1:] += np.geomspace(1e-5, 1e-2, zs.size)[:, None] * perp
    ball = rng.normal(size=(200, 4))
    ball *= 0.9 * rng.uniform(size=(200, 1)) / np.linalg.norm(ball, axis=1, keepdims=True)
    for sign, branch in zip((1.0, -1.0), built, strict=True):
        admissible = _cone_grid_mask(on_slice, unit, sign)
        assert np.array_equal(admissible, sign * zs.imag >= 0.0)
        assert np.array_equal(branch, sample[admissible[:sample.size]])
        assert not _cone_grid_mask(near, unit, sign).any()
        assert not _cone_grid_mask(ball, unit, sign).any()


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

    def counted(f, i, z1, z2, rows):
        stream = "slice" if z1 is slice_z1 else "circle"
        builds[names[f.array.tobytes()], i, stream] += 1
        # at most one member's values are alive: any stored moduli are f's
        store = config.plan.__dict__["_store"]
        assert all(key[2] is f for key in _store_keys(store, "moduli"))
        return real(f, i, z1, z2, rows)
    monkeypatch.setattr(slicereg.lipschitz, "_pair_moduli", counted)
    assert all(r.passed for r in run_suite(config))
    assert builds == {**{(m.name, unit, "slice"): 1
                         for m in config.corpus for unit in (config.i, config.k)},
                      **{(m.name, config.i, "circle"): 1 for m in config.corpus}}


def test_each_member_is_evaluated_once_on_the_slice_and_circle_pairs(monkeypatch):
    # modulus_membership reads the stored slice moduli, boundary_norm and
    # seminorms_N the stored circle moduli: each member is evaluated at
    # every slice pair point for unit i and at every circle point e1, e2
    # exactly once per run, whether the stream is passed whole or in
    # slices. algebraic_closure is left out: it evaluates its partner,
    # another member, on the slice pairs itself
    suites = tuple(name for name in ALL_SUITES if name != "algebraic_closure")
    # more pairs than a block, so the block loops take a ragged last slice
    config = RunConfig(n_pairs=_BLOCK + _BLOCK // 2, n_points=64, nodes=512, suites=suites)
    plan = config.plan
    points = dict(zip(("z1", "z2", "e1", "e2"), (*slicereg.lipschitz.slice_pair_coords(plan),
                                                 *slicereg.lipschitz.pair_weights(plan, "circle"))))
    assert all(p.size > _BLOCK for p in points.values())
    names = {split(m.series, config.i).C.tobytes(): m.name for m in config.corpus}
    counts = {(m.name, label): np.zeros(p.size, dtype=int)
              for m in config.corpus for label, p in points.items()}
    real = SplitSeries.at

    def at(self, z):
        z = np.asarray(z)
        for label, p in points.items():
            # matched by address: z1 and z2, and e1 and e2, are rows of one
            # buffer, so a block of either has that buffer as its base
            offset = z.__array_interface__["data"][0] - p.__array_interface__["data"][0]
            if self.i is config.i and 0 <= offset < p.nbytes:
                start = offset // p.itemsize
                assert z.ndim == 1 and z.strides == p.strides and offset % p.itemsize == 0
                assert start + z.size <= p.size
                counts[names.get(self.C.tobytes()), label][start:start + z.size] += 1
        return real(self, z)
    monkeypatch.setattr(SplitSeries, "at", at)
    assert all(r.passed for r in run_suite(config))
    assert {key: c.tolist() for key, c in counts.items()} == {
        key: [1] * c.size for key, c in counts.items()}


def test_setups_build_what_every_member_shares(monkeypatch):
    # the cone's branches and their powers come from its set-up, once per
    # sign, before any member step builds the defect grid's; the only stored
    # defect sup is the power-1 one the Poisson and cone suites share; and
    # run_suite returns the reports the set-ups built
    config = RunConfig(n_pairs=256, n_points=64, nodes=512)
    assert len(config.corpus) == 9
    powered, keys, built = [], [], []

    def spy(owner, name, seen, pick):
        real = getattr(owner, name)

        def wrapper(*args):
            result = real(*args)
            seen.append(pick(args, result))
            return result
        monkeypatch.setattr(owner, name, wrapper)

    spy(slicereg.verify, "slice_powers", powered, lambda args, _: args[0])
    spy(SamplePlan, "memo", keys, lambda args, _: args[1])
    for name in ALL_SUITES:
        spy(slicereg.verify, f"verify_{name}", built, lambda _, report: report)
    reports = run_suite(config)
    assert all(r.passed for r in reports)
    plus, minus, grid = powered
    assert np.all(plus.imag >= 0.0) and np.all(minus.imag <= 0.0) and grid.size == 144
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


@pytest.mark.parametrize("sizes", [{"n_pairs": 256, "n_points": 64, "nodes": 512}, {}],
                         ids=["small", "default"])
def test_a_suites_records_do_not_depend_on_the_suites_run_with_it(sizes):
    # the shared values a run builds lazily (stream weights, defect-grid
    # powers, spectra, moduli blocks) are the same whichever suite builds
    # them first; JSON text, as a NaN check is not equal to itself
    def by_suite(suites):
        reports = run_suite(RunConfig(**sizes, suites=suites))
        return {r.suite: json.dumps(r.to_dict()) for r in reports}

    full = by_suite(None)
    assert list(full) == list(ALL_SUITES)
    assert by_suite(ALL_SUITES[::-1]) == full
    for name in ALL_SUITES:
        assert by_suite((name,)) == {name: full[name]}, name


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


def test_a_default_run_skips_the_work_whose_result_is_known(monkeypatch):
    # no Horner pass over an all-zero coefficient row; one FFT of each
    # member's boundary moduli (|F|, |G|) and one of its modulus; the defect
    # grid's and each cone branch's powers built once per run, and only the
    # defect grid's stored; N1's grid, which grows with the points, never
    # made into stored powers
    config = RunConfig()
    calls = Counter()
    zero_rows, fft_shapes, powered, bare = [], [], [], []

    def spy(module, name, record):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            record(*args, **kwargs)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    spy(slicereg.series, "_horner", lambda c, *rest: zero_rows.append(not c.any()))
    spy(np.fft, "fft", lambda a, *rest, **kw: fft_shapes.append(np.shape(a)))
    spy(slicereg.verify, "slice_powers", lambda zs, nodes: powered.append(np.size(zs)))
    spy(slicereg.poisson, "poisson_integral_slice", lambda u, zs, nodes: bare.append(
        None if isinstance(zs, slicereg.poisson.SlicePowers) else np.size(zs)))
    reports = run_suite(config)
    assert all(r.passed for r in reports)
    assert zero_rows and not any(zero_rows)
    members, nodes = len(config.corpus), config.nodes
    assert Counter(fft_shapes) == {(2, nodes): members, (1, nodes): members}
    assert len(fft_shapes) == 18
    # the 144-point defect grid once, and each cone branch once
    admissible = [rec.checks for r in reports if r.suite == "cone_corollary"
                  for rec in r.records][0]
    assert sorted(powered) == sorted([144, int(admissible["admissible_plus"]),
                                      int(admissible["admissible_minus"])])
    n1_points = 8 * max(16, config.n_points // 16)
    assert [n for n in bare if n is not None] == [n1_points] * members
    stored = [v for v in config.plan.__dict__["_store"].values()
              if isinstance(v, slicereg.poisson.SlicePowers)]
    assert [v.size for v in stored] == [144]


def _records_by_asdict(report):
    """The report's records as dataclasses.asdict wrote them, bounds left out."""
    return [{"name": r.name, "passed": r.passed,
             **{k: v for k, v in dataclasses.asdict(r).items() if k != "bounds"}}
            for r in report.records]


def test_to_dict_writes_the_records_asdict_wrote():
    config = RunConfig(n_pairs=256, n_points=64, nodes=512, window=1.5)
    reports = run_suite(config)
    assert not all(r.passed for r in reports)  # failures and notes are written too
    for report in reports:
        d = report.to_dict()
        want = _records_by_asdict(report)
        assert json.dumps(d["records"]) == json.dumps(want)
        # copies: the report's records are not reachable from the dict
        for got, rec in zip(d["records"], report.records):
            assert list(got) == ["name", "passed", "checks", "witnesses", "failures", "notes"]
            assert got["checks"] is not rec.checks and got["failures"] is not rec.failures
            for label, pair in got["witnesses"].items():
                assert pair == rec.witnesses[label] and pair is not rec.witnesses[label]
                assert all(p is not q for p, q in zip(pair, rec.witnesses[label]))


def _member_step_transient(n_pairs, suite="norm_equivalences"):
    """Traced allocation peak of one member step of a suite above what the
    step leaves stored, after a first member's step has built the streams
    and weights every member shares."""
    config = RunConfig(n_pairs=n_pairs, n_points=64, nodes=512)
    report = getattr(slicereg.verify, f"verify_{suite}")(config)
    first, member = config.corpus[2], config.corpus[-1]
    report.check(FunctionRecord(first.name), first)
    config.plan.drop(first.series)
    rec = FunctionRecord(member.name)
    tracemalloc.start()
    try:
        report.check(rec, member)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.passed
    return peak - left


def test_a_member_step_has_no_transient_that_grows_with_the_pairs():
    # the member's stored blocks grow with the pairs; what the step builds
    # and frees on the way is bounded by _BLOCK pairs or points. At 16
    # blocks a transient of even one float per pair would add 786 KB
    small, large = (_member_step_transient(k * _BLOCK) for k in (4, 16))
    assert large <= small + 64 * 1024, (small, large)


def test_the_algebraic_closure_step_has_no_transient_that_grows_with_the_pairs():
    # the partner's increments, f*a + g's and f*a's, their bounds and the
    # violations are taken a block at a time; the full-stream (2, N)
    # complex differences took 2.56 MB at 4 blocks and 9.42 MB at 16
    small, large = (_member_step_transient(k * _BLOCK, "algebraic_closure") for k in (4, 16))
    assert large <= small + 64 * 1024, (small, large)


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
    rec.check("inf", math.inf)
    rec.check("nan", math.nan)
    rec.check("finite", 1.0)
    assert rec.failures == ["inf", "nan"]


BELOW_ONE, ABOVE_TWO = math.nextafter(1.0, -math.inf), math.nextafter(2.0, math.inf)


@pytest.mark.parametrize("value, bound, passes", [
    # both ends are inclusive, and nothing past them passes
    (1.0, dict(lo=1.0, hi=2.0), True),
    (2.0, dict(lo=1.0, hi=2.0), True),
    (BELOW_ONE, dict(lo=1.0, hi=2.0), False),
    (ABOVE_TWO, dict(lo=1.0, hi=2.0), False),
    # a value that is not finite fails under any bound
    (math.nan, dict(lo=1.0, hi=2.0), False),
    (math.inf, dict(lo=1.0, hi=math.inf), False),
    (-math.inf, dict(lo=-math.inf, hi=0.0), False),
    (math.nan, dict(lo=-math.inf, hi=math.inf), False),
    # a NaN bound holds nothing
    (1.0, dict(lo=math.nan), False),
    (1.0, dict(hi=math.nan), False),
    # an infinite bound passes a finite value; -inf above passes none
    (1e308, dict(lo=0.0, hi=math.inf), True),
    (-1e308, dict(lo=-math.inf, hi=0.0), True),
    (-1e308, dict(hi=-math.inf), False),
    # no bound: finite only
    (-1e308, {}, True),
    (math.inf, {}, False),
    (-math.inf, {}, False),
    (math.nan, {}, False),
])
def test_check_holds_its_value_to_lo_le_value_le_hi(value, bound, passes):
    rec = FunctionRecord("demo")
    rec.check("x", value, **bound)
    assert rec.passed is passes
    assert rec.failures == ([] if passes else ["x"])
    assert rec.bounds == {"x": (bound.get("lo", -math.inf), bound.get("hi", math.inf))}


def test_measure_never_fails_and_a_positional_bound_is_refused():
    rec = FunctionRecord("demo")
    for value in (math.nan, math.inf, -math.inf, 1.0):
        rec.measure("m", value)
    assert rec.passed and rec.bounds == {}
    with pytest.raises(TypeError):
        rec.check("x", 1.0, True)
    assert rec.checks == {"m": 1.0} and rec.passed


def test_report_and_record_plumbing():
    rec = FunctionRecord("demo")
    rec.check("fine", 1.0, lo=0.0, hi=1.0)
    rec.measure("count", 3)
    assert rec.passed and rec.checks["count"] == 3.0
    rec.check("bad", 2.0, hi=1.0)
    assert not rec.passed and rec.failures == ["bad"]
    assert rec.bounds == {"fine": (0.0, 1.0), "bad": (-math.inf, 1.0)}
    rep = VerificationReport(suite="s", records=[rec], tolerances={"t": 1.0})
    assert not rep.passed
    d = rep.to_dict()
    assert d["suite"] == "s"
    assert d["records"][0]["checks"]["bad"] == 2.0
    # the bounds stay on the record; the report's keys are unchanged
    assert list(d["records"][0]) == ["name", "passed", "checks", "witnesses", "failures",
                                     "notes"]


def test_each_reported_tolerance_is_the_bound_applied():
    suites = ("inclusion_chain", "slice_independence", "norm_equivalences",
              "poisson_characterization")
    reports = {r.suite: r for r in run_suite(RunConfig(suites=suites, n_pairs=64,
                                                       n_points=16, nodes=64))}

    def bound(suite, label):
        found = {rec.bounds[label] for rec in reports[suite].records if label in rec.bounds}
        assert len(found) == 1, (suite, label, found)
        return found.pop()

    ratio_max = reports["inclusion_chain"].tolerances["ratio_max"]
    assert bound("inclusion_chain", "global_over_6c3") == (-math.inf, ratio_max)
    lo, hi = bound("slice_independence", "ratio")
    assert (1.0 / lo, hi) == (reports["slice_independence"].tolerances["ratio_window"],) * 2
    window = reports["norm_equivalences"].tolerances["window"]
    assert bound("norm_equivalences", "max_over_min") == (-math.inf, window)
    assert reports["poisson_characterization"].tolerances["window"] == window
    assert bound("poisson_characterization", "defect_over_lip") == (1.0 / window, window)


def test_a_constant_member_fails_norm_equivalences_on_non_finite_functionals(
        tmp_path, monkeypatch):
    # the vacuous branch skips the positivity and window checks, not finiteness:
    # a NaN that is not the vacuity test's first argument must still fail
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"c": [[0.75, 0, 0, 0]]}))
    monkeypatch.setattr(slicereg.verify, "seminorms_N",
                        lambda *args, **kwargs: (np.full(2, np.nan),) * 3)
    (rep,) = run_suite(RunConfig(corpus_path=str(path), suites=("norm_equivalences",),
                                 n_pairs=64, n_points=16, nodes=64))
    (rec,) = rep.records
    assert "constant member: vacuous pass" in rec.notes
    assert rec.failures == ["n1_sum", "n2_sum", "n3_sum"]
    assert not rep.passed
