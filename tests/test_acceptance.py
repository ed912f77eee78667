"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion NN: PASS/FAIL`` line (visible with
``pytest -s`` or in failure output) and enforces the stated tolerance and
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from slicereg.cli import RunConfig, emit_report
from slicereg.lipschitz import (
    SamplePlan,
    bounded_growth_check,
    derivative_ratio,
    disc_points,
    global_norm,
    slice_norm,
)
from slicereg.majorant import PowerMajorant, TabulatedMajorant, check_regular
from slicereg.poisson import (
    MODES,
    harmonic_defect,
    modulus_boundary_function,
    poisson_integral,
    rotation_equivariance_residual,
    star_kernel_bound,
)
from slicereg.quaternion import (
    E1,
    E2,
    E3,
    ONE,
    UNIT_E1,
    UNIT_E2,
    ImaginaryUnit,
    Quaternion,
    from_array,
    hamilton_mul,
    hmul_array,
    norm,
    norm_array,
    slice_point,
    slice_points_array,
)
from slicereg.series import (
    SliceSeries,
    cullen_derivative,
    evaluate,
    evaluate_batch,
    regular_conjugate,
    representation_extend,
    split,
    star_inverse,
    star_inverse_derivative,
    star_pointwise,
    star_product,
)
from slicereg.verify import default_corpus, run_suite


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


def _report(number, ok, detail, budget, elapsed):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number:2d}: {status} — {detail} [{elapsed:.2f}s/{budget:.0f}s]")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number}: {elapsed:.2f}s over {budget}s budget"


def test_criterion_01_algebra_exactness():
    t0 = time.monotonic()
    basis = {"1": ONE, "e1": E1, "e2": E2, "e3": E3}
    want = {
        ("e1", "e2"): ("e3", 1), ("e2", "e1"): ("e3", -1),
        ("e2", "e3"): ("e1", 1), ("e3", "e2"): ("e1", -1),
        ("e3", "e1"): ("e2", 1), ("e1", "e3"): ("e2", -1),
        ("e1", "e1"): ("1", -1), ("e2", "e2"): ("1", -1), ("e3", "e3"): ("1", -1),
    }
    table_ok = all(
        hamilton_mul(basis[a], basis[b]).components()
        == (sign * basis[c]).components()
        for (a, b), (c, sign) in want.items()
    )
    rng = np.random.default_rng(1001)
    p = rng.normal(size=(10_000, 4))
    q = rng.normal(size=(10_000, 4))
    lhs = norm_array(hmul_array(p, q))
    rhs = norm_array(p) * norm_array(q)
    worst = float(np.max(np.abs(lhs - rhs) / rhs))
    elapsed = time.monotonic() - t0
    _report(1, table_ok and worst < 1e-12,
            f"table sign-exact, norm multiplicativity {worst:.2e} on 1e4 pairs",
            1.0, elapsed)


def test_criterion_02_splitting_roundtrip(corpus):
    t0 = time.monotonic()
    rng = np.random.default_rng(1002)
    r = np.sqrt(rng.uniform(0.0, 1.0, 1000)) * 0.999
    zs = r * np.exp(2j * np.pi * rng.uniform(size=1000))
    i = ImaginaryUnit.from_vector(1.0, -1.0, 0.5)
    pts = slice_points_array(i, zs)
    worst = 0.0
    for m in corpus:
        rebuilt = split(m.series, i).values(zs)
        direct = evaluate_batch(m.series, pts)
        worst = max(worst, float(np.max(np.abs(rebuilt - direct))))
    elapsed = time.monotonic() - t0
    _report(2, worst < 1e-12,
            f"split/recombine error {worst:.2e} over 1000 points x corpus",
            5.0, elapsed)


def test_criterion_03_representation_formula(corpus):
    t0 = time.monotonic()
    rng = np.random.default_rng(1003)
    i = UNIT_E1
    worst = 0.0
    vs = rng.normal(size=(1000, 3))
    xy = rng.uniform(-0.7, 0.7, size=(1000, 2))
    for m in corpus:
        for k in range(0, 1000, 9):  # ~112 points per member, 1008 total
            unit = ImaginaryUnit.from_vector(*vs[k])
            x, y = float(xy[k, 0]), abs(float(xy[k, 1]))
            q = Quaternion(x) + y * unit.as_quaternion()
            fplus = evaluate(m.series, slice_point(i, complex(x, y)))
            fminus = evaluate(m.series, slice_point(i, complex(x, -y)))
            got = representation_extend(fplus, fminus, i, unit)
            worst = max(worst, norm(got - evaluate(m.series, q)))
    elapsed = time.monotonic() - t0
    _report(3, worst < 1e-10,
            f"extension vs direct evaluation error {worst:.2e}",
            5.0, elapsed)


def test_criterion_04_star_algebra(corpus):
    t0 = time.monotonic()
    rng = np.random.default_rng(1004)
    qs = [from_array(row) for row in
          rng.normal(size=(20, 4)) * (0.7 / 2.2)]

    worst_pt = 0.0
    members = [m.series for m in corpus]
    for a in range(len(members)):
        f, g = members[a], members[(a + 1) % len(members)]
        prod = star_product(f, g)
        for q in qs:
            fq = evaluate(f, q)
            if norm(fq) <= 1e-6:
                continue
            got = star_pointwise(f, g, q)
            want = evaluate(prod, q)
            worst_pt = max(worst_pt, norm(got - want) / max(norm(want), 1e-6))

    worst_real = 0.0
    for f in members:
        sym = star_product(f, regular_conjugate(f))
        scale = max(1.0, max(norm(c) for c in sym.coefficients))
        worst_real = max(worst_real,
                         max(c.vector_norm() for c in sym.coefficients) / scale)

    # *-inverse identity on well-conditioned invertible functions: the
    # non-invertible shapes join shifted by 1
    invertible = [m.series for m in corpus
                  if norm(evaluate(star_product(m.series, regular_conjugate(m.series)),
                                   Quaternion(0.0))) >= 0.1]
    invertible += [SliceSeries([ONE, ONE]), SliceSeries([ONE, Quaternion(0.0), ONE])]
    M = 16
    worst_inv = 0.0
    worst_der = 0.0
    for f in invertible:
        inv = star_inverse(f, M)
        prod = star_product(f, inv).truncated(M)
        target = [ONE] + [Quaternion(0.0)] * M
        padded = list(prod.coefficients) + [Quaternion(0.0)] * (M + 1)
        worst_inv = max(worst_inv,
                        max(norm(a - b) for a, b in zip(padded, target)))
        d_direct = star_inverse_derivative(f, M - 1)
        d_chain = cullen_derivative(star_inverse(f, M)).truncated(M - 1)
        worst_der = max(worst_der,
                        max(norm(a - b) for a, b in
                            zip(d_direct.coefficients, d_chain.coefficients)))
    elapsed = time.monotonic() - t0
    ok = (worst_pt < 1e-8 and worst_real < 1e-12
          and worst_inv < 1e-10 and worst_der < 1e-10)
    _report(4, ok,
            f"pointwise {worst_pt:.1e}, symmetrization residue {worst_real:.1e}, "
            f"inverse {worst_inv:.1e}, inverse-derivative {worst_der:.1e}",
            10.0, elapsed)


def test_criterion_05_poisson(corpus):
    t0 = time.monotonic()
    one = np.ones_like
    i = UNIT_E1
    worst_one = max(
        abs(poisson_integral(one, slice_point(i, complex(z)), i, nodes=4096) - 1.0)
        for z in (0.0, 0.5, 0.9j, 0.7 + 0.69j, 0.995)
    )

    rng = np.random.default_rng(1005)
    worst_eq = 0.0
    f = corpus[4].series  # cubic with all four basis coefficients
    u = modulus_boundary_function(f, i)
    for _ in range(5):
        r = rng.normal(size=4)
        rot = from_array(r / np.linalg.norm(r))
        z = complex(*(rng.uniform(-0.5, 0.5, 2)))
        worst_eq = max(worst_eq, rotation_equivariance_residual(
            u, rot, slice_point(i, z), i, nodes=2048))

    worst_defect = 0.0
    for m in corpus:
        for z in (0.0, 0.3 + 0.2j, -0.5j, 0.6):
            for mode in MODES:
                d = harmonic_defect(m.series, slice_point(i, complex(z)), i,
                                    mode, nodes=1024)
                worst_defect = min(worst_defect, d)

    worst_kernel = 0.0
    units = rng.normal(size=(50, 2, 3))
    zs = 0.8 * np.sqrt(rng.uniform(size=50)) * np.exp(2j * np.pi * rng.uniform(size=50))
    for k in range(50):
        ui = ImaginaryUnit.from_vector(*units[k, 0])
        uj = ImaginaryUnit.from_vector(*units[k, 1])
        m = corpus[k % len(corpus)].series
        lhs, rhs = star_kernel_bound(m, slice_point(ui, complex(zs[k])), ui, uj,
                                     nodes=1024)
        worst_kernel = max(worst_kernel, lhs - rhs)
    elapsed = time.monotonic() - t0
    ok = (worst_one < 1e-8 and worst_eq < 1e-8
          and worst_defect >= -1e-8 and worst_kernel <= 1e-8)
    _report(5, ok,
            f"P[1] error {worst_one:.1e}, equivariance {worst_eq:.1e}, "
            f"defect min {worst_defect:.1e}, kernel excess {worst_kernel:.1e}",
            30.0, elapsed)


def test_criterion_06_majorants():
    t0 = time.monotonic()
    half = check_regular(PowerMajorant(0.5))
    ok_half = half.is_regular and half.empirical_C <= 4.1

    lin = check_regular(PowerMajorant(1.0))
    ok_lin = (not lin.is_regular
              and lin.empirical_C >= 0.9 * math.log(2.0 / lin.worst_x))

    t = np.linspace(0.0, 2.0, 1025)
    quad = check_regular(TabulatedMajorant(t, t ** 2))
    ok_quad = (not quad.is_regular) and (not quad.ratio_monotone)
    elapsed = time.monotonic() - t0
    _report(6, ok_half and ok_lin and ok_quad,
            f"power(1/2) C={half.empirical_C:.4f}<=4.1; identity diverges "
            f"C={lin.empirical_C:.1f}>={0.9 * math.log(2.0 / lin.worst_x):.1f}; "
            "quadratic fails ratio monotonicity",
            5.0, elapsed)


def test_criterion_07_norm_estimators():
    t0 = time.monotonic()
    plan = SamplePlan(n_pairs=10_000)
    ident = SliceSeries([0.0, 1.0])
    square = SliceSeries([0.0, 0.0, 1.0])
    s = slice_norm(ident, PowerMajorant(0.5), UNIT_E1, plan).value
    g = global_norm(ident, PowerMajorant(0.5), plan).value
    s2 = slice_norm(square, PowerMajorant(1.0), UNIT_E1, plan).value
    root2 = math.sqrt(2.0)
    ok = (abs(s - root2) <= 0.02 * root2
          and abs(g - root2) <= 0.02 * root2
          and abs(s2 - 2.0) <= 0.04)
    elapsed = time.monotonic() - t0
    _report(7, ok,
            f"slice {s:.4f}, global {g:.4f} (target sqrt2), square {s2:.4f} (target 2)",
            10.0, elapsed)


def test_criterion_08_inclusion_constant():
    t0 = time.monotonic()
    (rep,) = run_suite(RunConfig(suites=("inclusion_chain",)))
    ratios = {rec.name: rec.checks["global_over_6c3"] for rec in rep.records}
    worst = max(ratios.values())
    elapsed = time.monotonic() - t0
    _report(8, rep.passed and worst <= 1.0 + 1e-9,
            f"global/(6 C3) worst ratio {worst:.4f} over corpus",
            60.0, elapsed)


def test_criterion_09_slice_independence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1009)
    pairs = [(UNIT_E1, UNIT_E2)]
    while len(pairs) < 6:  # the default pair plus 5 random ones
        a = ImaginaryUnit.from_vector(*rng.normal(size=3))
        b = ImaginaryUnit.from_vector(*rng.normal(size=3))
        if abs(a.dot(b)) < 0.999:
            pairs.append((a, b))
    all_ok = True
    worst_ratio, worst_gap = 1.0, 0.0
    for i, k in pairs:
        (rep,) = run_suite(RunConfig(slice_i=i.components(), slice_k=k.components(),
                                     suites=("slice_independence",)))
        all_ok = all_ok and rep.passed
        for rec in rep.records:
            r = rec.checks.get("ratio")
            if r:
                worst_ratio = max(worst_ratio, max(r, 1.0 / r))
            gap = rec.checks.get("intrinsic_gap")
            if gap is not None:
                worst_gap = max(worst_gap, gap)
    elapsed = time.monotonic() - t0
    _report(9, all_ok and worst_ratio <= 2.2 and worst_gap <= 1e-10,
            f"norm ratio within [{1 / 2.2:.3f}, 2.2] (worst {worst_ratio:.3f}), "
            f"intrinsic paired gap {worst_gap:.1e} across 6 slice pairs",
            60.0, elapsed)


def test_criterion_10_derivative_characterization(corpus):
    t0 = time.monotonic()
    plan = SamplePlan()
    i = UNIT_E1
    ident = SliceSeries([0.0, 1.0])
    square = SliceSeries([0.0, 0.0, 1.0])
    w_lin = PowerMajorant(1.0)
    r1 = derivative_ratio(ident, w_lin, i, plan)[0].value
    r1_cap = derivative_ratio(ident, w_lin, i, plan, cap=0.4)[0].value
    r2 = derivative_ratio(square, w_lin, i, plan)[0].value
    worst_slack = 0.0
    zs = disc_points(SamplePlan(n_pairs=128, n_points=128), cap=0.9)[:100]
    for m in corpus:
        chk = bounded_growth_check(m.series, zs, i, plan)
        worst_slack = min(worst_slack, float(np.min(chk.sandwich_slack)),
                          float(np.min(chk.quadratic_slack)))
    ok = (abs(r1 - 1.0) < 1e-12 and abs(r1_cap - 1.0) < 1e-12
          and abs(r2 - 2.0) <= 0.04 and worst_slack >= -1e-8)
    elapsed = time.monotonic() - t0
    _report(10, ok,
            f"identity ratio {r1:.12f}, square {r2:.4f} (target 2), "
            f"growth slack min {worst_slack:.1e} at 100 pts/function",
            30.0, elapsed)


def test_criterion_11_poisson_defect_equivalence():
    t0 = time.monotonic()
    (rep,) = run_suite(RunConfig(suites=("poisson_characterization",)))
    by_name = {rec.name: rec for rec in rep.records}
    defect = by_name["identity"].checks["defect_sup"]
    ok_units = abs(defect - 1.0) <= 0.02
    windows_ok = rep.passed
    elapsed = time.monotonic() - t0
    _report(11, ok_units and windows_ok,
            f"identity defect ratio sup {defect:.4f} (target 1), "
            "defect and increment constants finite together in window 20",
            60.0, elapsed)


def test_criterion_12_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = RunConfig(seed=4242, n_pairs=512, n_points=256, nodes=512,
                    suites=("inclusion_chain", "modulus_membership",
                            "cone_corollary"))
    out = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.json"
        emit_report(run_suite(cfg), str(path), "json", cfg)
        out.append(path.read_bytes())
    elapsed = time.monotonic() - t0
    _report(12, out[0] == out[1],
            f"two seeded runs byte-identical ({len(out[0])} bytes)",
            5.0, elapsed)
