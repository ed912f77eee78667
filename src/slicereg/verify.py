"""Property suites: each norm-space proposition becomes an executable check.

A suite runs over a corpus of truncated series, computes the empirical
constants the statement involves, and passes or fails against the explicit
constants where the statement provides them (the 6*C3 bound, the 2x slice
sandwich) or against a two-sided ratio window (default K=20) where it only
asserts equivalence with unspecified constants. Estimated sups are lower
bounds, so every pass criterion is arranged to be conservative under
refinement of the sampling plan.

All sampling is driven by the shared SamplePlan, so reports are
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .lipschitz import (
    NormEstimate,
    SamplePlan,
    _golden_angles,
    ball_pair_coords,
    boundary_norm,
    bounded_growth_check,
    component_estimates,
    derivative_ratio,
    disc_points,
    global_norm,
    radial_grid,
    seminorms_N,
    slice_norm,
    slice_pair_coords,
)
from .majorant import Majorant, PowerMajorant, check_regular, combine
from .poisson import defect_sup, poisson_integral_slice
from .quaternion import (
    E1,
    E2,
    E3,
    ONE,
    ImaginaryUnit,
    Quaternion,
    UNIT_E1,
    norm,
    slice_points_array,
)
from .series import (
    SliceSeries,
    SplitSeries,
    cullen_derivative,
    evaluate_batch,
    is_intrinsic,
    on_circle,
    split,
    split_modulus,
)

if TYPE_CHECKING:
    from .cli import RunConfig


class NotIntrinsic(ValueError):
    """A suite restricted to real-coefficient series got something else."""


class NoAdmissibleSamples(RuntimeError):
    """Every sampled point failed the cone condition on the angle grid."""


@dataclass(frozen=True)
class CorpusMember:
    name: str
    series: SliceSeries

    @property
    def intrinsic(self) -> bool:
        return is_intrinsic(self.series)


def default_corpus(seed: int = 2024) -> tuple[CorpusMember, ...]:
    """Fixed test functions: constants, monomials, basis-coefficient
    polynomials, a truncated exponential, and two seeded random series
    scaled to keep their ball sup below one."""
    members = [
        CorpusMember("const_real", SliceSeries([0.75])),
        CorpusMember("const_quat", SliceSeries([Quaternion(0.3, -0.2, 0.5, 0.1)])),
        CorpusMember("identity", SliceSeries([0.0, 1.0])),
        CorpusMember("square", SliceSeries([0.0, 0.0, 1.0])),
        CorpusMember("cubic_basis", SliceSeries([ONE, E1, E2, E3])),
        CorpusMember("linear_mix", SliceSeries([E1, E2])),
        CorpusMember(
            "exp_taylor",
            SliceSeries([1.0 / math.factorial(n) for n in range(13)]),
        ),
    ]
    raw = np.random.default_rng([seed, 77]).normal(size=(2, 9, 4))
    for tag in range(raw.shape[0]):
        coeffs = [Quaternion(*raw[tag, n]) for n in range(raw.shape[1])]
        total = sum(norm(c) for c in coeffs)
        members.append(
            CorpusMember(f"random_{tag}", SliceSeries([c * (0.5 / total) for c in coeffs]))
        )
    return tuple(members)


@dataclass
class FunctionRecord:
    name: str
    checks: dict[str, float] = field(default_factory=dict)
    witnesses: dict[str, list] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, label: str, value: float, ok: bool):
        self.checks[label] = float(value)
        if not ok:
            self.failures.append(label)

    def witness(self, label: str, est: NormEstimate):
        self.witnesses[label] = [list(p.components()) for p in est.argmax_pair]


@dataclass
class VerificationReport:
    suite: str
    records: list[FunctionRecord]
    tolerances: dict[str, float]
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records) and not any(
            n.startswith("error:") for n in self.notes
        )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "tolerances": dict(self.tolerances),
            "notes": list(self.notes),
            "records": [{"name": r.name, "passed": r.passed, **asdict(r)}
                        for r in self.records],
        }


@contextmanager
def _guarded(rec: FunctionRecord):
    """Context wrapper: an exception inside a member's checks marks the
    record failed instead of aborting the suite."""
    try:
        yield rec
    except Exception as exc:
        rec.failures.append(f"exception:{type(exc).__name__}")
        rec.notes.append(str(exc))


def _ratio_or_zero(num: float, den: float) -> float:
    if den > 0.0:
        return num / den
    return 0.0 if num == 0.0 else math.inf


def verify_inclusion_chain(corpus, omega1: Majorant, omega2: Majorant,
                           plan: SamplePlan, i: ImaginaryUnit = UNIT_E1
                           ) -> VerificationReport:
    """Two-majorant membership controls global membership with constant
    6*C3, C3 = max of the component constants; and the global class embeds
    back into the slice class for the summed majorant.

    The second inclusion is checked on estimates by folding the in-plane
    pair stream into the global stream, which makes sup(slice) <= sup(global)
    hold exactly as sampled.
    """
    tol = 1e-9
    osum = omega1 + omega2
    records = []
    for m in corpus:
        rec = FunctionRecord(m.name)
        with _guarded(rec):
            c1, c2, _ = component_estimates(m.series, omega1, omega2, i, plan)
            c3 = max(c1.value, c2.value)
            g = global_norm(m.series, osum, plan)
            s_sum = slice_norm(m.series, osum, i, plan)
            g_aug = max(g.value, s_sum.value)
            rec.check("component_c1", c1.value, True)
            rec.check("component_c2", c2.value, True)
            rec.check("global", g.value, True)
            ratio = _ratio_or_zero(g.value, 6.0 * c3)
            rec.check("global_over_6c3", ratio, ratio <= 1.0 + tol)
            rec.check("slice_sum_norm", s_sum.value,
                      s_sum.value <= g_aug * (1.0 + tol) + tol)
            rec.witness("global", g)
        records.append(rec)
    return VerificationReport(
        suite="inclusion_chain",
        records=records,
        tolerances={"ratio_max": 1.0 + tol},
    )


def verify_algebraic_closure(corpus, omega1: Majorant, omega2: Majorant,
                             a: Quaternion, plan: SamplePlan,
                             i: ImaginaryUnit = UNIT_E1) -> VerificationReport:
    """Right-module closure: f*a + g stays in the class with constant
    ||a||*C_f + C_g, and the components of f*a obey the swapped-majorant
    bound built by combine(). Both are checked pair-by-pair against
    constants sampled on the same pair stream, so they hold exactly up to
    roundoff."""
    tol = 1e-9
    z1, z2 = slice_pair_coords(plan)
    d = np.abs(z1 - z2)
    a_series = SliceSeries([a])
    a1c, a2c, _ = split(a_series, i)
    a1n, a2n = abs(a1c[0]), abs(a2c[0])
    mu1, mu2 = combine(a1n, a2n, omega1, omega2)
    w1, w2 = omega1(d), omega2(d)
    mu1d, mu2d = mu1(d), mu2(d)

    def diffs(series):
        s = SplitSeries.of(series, i)
        return s.at(z1) - s.at(z2)

    records = []
    for idx, m in enumerate(corpus):
        partner = corpus[(idx + 1) % len(corpus)]
        rec = FunctionRecord(m.name)
        with _guarded(rec):
            dF, dG = d_f = diffs(m.series)
            cf = float(np.max(split_modulus(d_f) / w1))
            cg = float(np.max(split_modulus(diffs(partner.series)) / w1))

            combo = m.series * a + partner.series
            lhs = split_modulus(diffs(combo))
            rhs = (norm(a) * cf + cg) * w1
            floor = tol * (1.0 + float(np.max(lhs)))
            viol = float(np.max(lhs - rhs * (1.0 + tol)))
            rec.check("linear_closure_violation", viol, viol <= floor)

            c1 = float(np.max(np.abs(dF) / w1))
            c2 = float(np.max(np.abs(dG) / w2))
            c3 = max(c1, c2)
            dFa, dGa = diffs(m.series * a)
            v1 = float(np.max(np.abs(dFa) - c3 * mu1d * (1.0 + tol)))
            v2 = float(np.max(np.abs(dGa) - c3 * mu2d * (1.0 + tol)))
            rec.check("combine_component1_violation", v1, v1 <= floor)
            rec.check("combine_component2_violation", v2, v2 <= floor)
        records.append(rec)
    return VerificationReport(
        suite="algebraic_closure",
        records=records,
        tolerances={"relative": tol},
        notes=[f"a = [{a.x0}, {a.x1}, {a.x2}, {a.x3}]"],
    )


def verify_intrinsic_invariance(corpus, omega: Majorant, i: ImaginaryUnit,
                                k: ImaginaryUnit, plan: SamplePlan) -> VerificationReport:
    """Real-coefficient series have the same norm on every slice; their
    second split component vanishes, collapsing the two-majorant norm onto
    the first component. Raises NotIntrinsic on any other input."""
    tol = 1e-10
    other = PowerMajorant(0.75)
    records = []
    for m in corpus:
        if not m.intrinsic:
            raise NotIntrinsic(m.name)
        rec = FunctionRecord(m.name)
        with _guarded(rec):
            n_i = slice_norm(m.series, omega, i, plan)
            n_k = slice_norm(m.series, omega, k, plan)
            scale = max(1.0, n_i.value)
            rec.check("norm_i", n_i.value, True)
            rec.check("slice_gap", abs(n_i.value - n_k.value),
                      abs(n_i.value - n_k.value) <= tol * scale)
            c1, c2, joint = component_estimates(m.series, omega, other, i, plan)
            rec.check("second_component", c2.value, c2.value <= tol)
            rec.check("component_vs_slice", abs(joint.value - n_i.value),
                      abs(joint.value - n_i.value) <= 1e-12 * scale)
        records.append(rec)
    return VerificationReport(
        suite="intrinsic_invariance",
        records=records,
        tolerances={"paired_sampling": tol},
    )


def verify_slice_independence(corpus, omega: Majorant, i: ImaginaryUnit,
                              k: ImaginaryUnit, plan: SamplePlan) -> VerificationReport:
    """Norms on two slices agree within a factor 2 (checked with relative
    slack 0.1, so the window is [1/2.2, 2.2]); intrinsic members agree
    exactly under the paired pair stream."""
    bound = 2.2
    records = []
    for m in corpus:
        rec = FunctionRecord(m.name)
        with _guarded(rec):
            n_i = slice_norm(m.series, omega, i, plan).value
            n_k = slice_norm(m.series, omega, k, plan).value
            if n_i == 0.0 and n_k == 0.0:
                ratio = 1.0
            else:
                ratio = _ratio_or_zero(n_i, n_k)
            rec.check("ratio", ratio, 1.0 / bound <= ratio <= bound)
            if m.intrinsic:
                rec.check("intrinsic_gap", abs(ratio - 1.0),
                          abs(ratio - 1.0) <= 1e-10)
        records.append(rec)
    return VerificationReport(
        suite="slice_independence",
        records=records,
        tolerances={"ratio_window": bound},
    )


def verify_modulus_membership(corpus, omega: Majorant, i: ImaginaryUnit,
                              plan: SamplePlan) -> VerificationReport:
    """Membership passes to the modulus and to the two sandwich moduli:
    per sampled pair, | ||f(x)|| - ||f(y)|| | <= ||f(x)-f(y)|| and the
    sandwich-modulus differences are <= 2 ||f(x)-f(y)||, hence the modulus
    norms are controlled by the slice norm."""
    tol = 1e-12
    z1, z2 = slice_pair_coords(plan)
    w = omega(np.abs(z1 - z2))
    records = []
    for m in corpus:
        rec = FunctionRecord(m.name)
        with _guarded(rec):
            s = SplitSeries.of(m.series, i)
            v1, v2 = s.at(z1), s.at(z2)
            full = split_modulus(v1 - v2)
            floor = tol * (1.0 + float(np.max(full)))

            mod = np.abs(split_modulus(v1) - split_modulus(v2))
            v_mod = float(np.max(mod - full))
            rec.check("reverse_triangle_violation", v_mod, v_mod <= floor)

            s_minus, s_plus = 2.0 * np.abs(np.abs(v1) - np.abs(v2))
            v_sw = float(np.max(np.maximum(s_minus, s_plus) - 2.0 * full))
            rec.check("sandwich_vs_double_violation", v_sw, v_sw <= 2.0 * floor)

            mod_norm = float(np.max(mod / w))
            f_norm = float(np.max(full / w))
            rec.check("modulus_norm", mod_norm,
                      mod_norm <= f_norm * (1.0 + tol) + floor)
            rec.check("function_norm", f_norm, True)
        records.append(rec)
    return VerificationReport(
        suite="modulus_membership",
        records=records,
        tolerances={"pointwise": tol},
    )


def _component_defect_sup(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
                          plan: SamplePlan, nodes: int,
                          power: int = 1) -> float:
    """sup over a radial/ray grid and both split components of
    (P[|f_k|^power](x) - |f_k(x)|^power) / omega(1-|x|)^power."""
    cap = min(plan.max_radius, 1.0 - 10.0 / nodes - 1e-9)
    radii = radial_grid(cap, 24)
    xs = (radii[:, None] * np.exp(1j * _golden_angles(6, offset=4))[None, :]).ravel()
    F, G, _ = split(f, i)
    return max(0.0, defect_sup((F, G), omega, xs, nodes, power))


def verify_norm_equivalences(corpus, omega: Majorant, i: ImaginaryUnit,
                             plan: SamplePlan, nodes: int = 2048,
                             window: float = 20.0) -> VerificationReport:
    """The squared slice norm, the three component-summed boundary
    functionals, and the squared-modulus Poisson-defect functional are
    pairwise comparable within the window; all-zero members pass vacuously.

    Needs omega and omega^2 both regular; the default config uses the 1/4
    power so its square is the 1/2 power.
    """
    records = []
    for m in corpus:
        rec = FunctionRecord(m.name)
        with _guarded(rec):
            F, G, _ = split(m.series, i)
            lam2 = slice_norm(m.series, omega, i, plan).value ** 2
            n_f = seminorms_N(F, omega, i, plan, nodes)
            n_g = seminorms_N(G, omega, i, plan, nodes)
            sums = [n_f[t] ** 2 + n_g[t] ** 2 for t in range(3)]
            pdef = _component_defect_sup(m.series, omega, i, plan, nodes, power=2)
            funcs = {
                "slice_sq": lam2,
                "n1_sum": sums[0],
                "n2_sum": sums[1],
                "n3_sum": sums[2],
                "poisson_sq_defect": pdef,
            }
            # The difference-quotient functionals are quadrature-free and
            # vanish exactly iff the member is constant; the Poisson-defect
            # ones sit on a small positive quadrature floor even then, so
            # they cannot be used to detect vacuity.
            scale = max(funcs.values())
            if max(lam2, sums[1], sums[2]) <= 1e-12:
                for label, v in funcs.items():
                    rec.check(label, v, True)
                rec.notes.append("constant member: vacuous pass")
            else:
                lo = min(funcs.values())
                for label, v in funcs.items():
                    rec.check(label, v, v > 1e-12 * max(1.0, scale))
                ratio = scale / lo if lo > 0 else math.inf
                rec.check("max_over_min", ratio, ratio <= window)
        records.append(rec)
    return VerificationReport(
        suite="norm_equivalences",
        records=records,
        tolerances={"window": window},
    )


def verify_derivative_characterizations(corpus, omega: Majorant,
                                        plan: SamplePlan,
                                        i: ImaginaryUnit = UNIT_E1) -> VerificationReport:
    """Derivative growth: the weighted derivative sups are finite and
    radially stable; the full-ball derivative sup is controlled by twice
    the slice sup (checked exactly by folding the sampled projections into
    the slice stream); the one-point growth inequalities hold at 100
    points; and the full derivative ratio is controlled by the component
    constant times the regularity constant of omega. A weight that
    check_regular rejects fails every member with omega_not_regular."""
    tol = 1e-8
    cert = check_regular(omega)
    mixed_window = 6.0 * cert.empirical_C
    records = []
    qs = ball_pair_coords(plan)[0]
    gaps = 1.0 - np.linalg.norm(qs, axis=1)
    wq = omega(gaps)
    for m in corpus:
        rec = FunctionRecord(m.name)
        with _guarded(rec):
            modes = {}
            for mode in ("full", "plus", "minus"):
                est = derivative_ratio(m.series, omega, i, mode, plan)
                inner = derivative_ratio(m.series, omega, i, mode, plan, cap=0.9)
                modes[mode] = est.value
                rec.check(f"ratio_{mode}", est.value, math.isfinite(est.value))
                growth = _ratio_or_zero(est.value, inner.value) if inner.value else 1.0
                rec.checks[f"radial_stability_{mode}"] = float(growth)

            fp = cullen_derivative(m.series)
            gvals = evaluate_batch(fp, qs)
            g_ratio = float(np.max(np.linalg.norm(gvals, axis=1) * gaps / wq))
            sp = SplitSeries.of(fp, i)
            proj = qs[:, 0] + 1j * np.linalg.norm(qs[:, 1:], axis=1)
            pvals = np.maximum(sp.modulus(proj), sp.modulus(proj.conj()))
            s_aug = max(modes["full"],
                        float(np.max(pvals * gaps / wq)))
            rec.check("global_derivative_ratio", g_ratio,
                      g_ratio <= 2.0 * s_aug * (1.0 + 1e-12) + tol)

            pts = disc_points(plan, cap=min(plan.max_radius, 0.99))[:100]
            chk = bounded_growth_check(m.series, slice_points_array(i, pts), i, plan)
            scale = 1.0 + chk.local_sup
            worst2 = float(np.min(chk.sandwich_slack / scale))
            # libm pow, as Python's float ** 2; scale * scale may differ in the last bit
            worst5 = float(np.min(chk.quadratic_slack / np.float_power(scale, 2.0)))
            rec.check("growth_sandwich_slack", worst2, worst2 >= -tol)
            rec.check("growth_quadratic_slack", worst5, worst5 >= -tol)

            if cert.is_regular:
                _, _, joint = component_estimates(m.series, omega, omega, i, plan)
                mixed = _ratio_or_zero(modes["full"], math.sqrt(2.0) * joint.value)
                rec.check("mixed_bound_constant", mixed,
                          mixed <= mixed_window * (1.0 + 1e-9))
            else:
                rec.check("omega_not_regular", cert.empirical_C, False)
        records.append(rec)

    trend = []
    for deg in (8, 16, 32):
        log_like = SliceSeries([0.0] + [1.0 / n for n in range(1, deg + 1)])
        trend.append(derivative_ratio(log_like, PowerMajorant(0.5), i,
                                      "full", plan).value)
    notes = [
        "truncation trend (degrees 8,16,32): "
        + ", ".join(f"{v:.6f}" for v in trend)
        + (" [increasing]" if trend[0] < trend[1] < trend[2] else "")
    ]
    return VerificationReport(
        suite="derivative_characterizations",
        records=records,
        tolerances={"slack": tol, "mixed_window": mixed_window},
        notes=notes,
    )


def verify_poisson_characterization(corpus, omega: Majorant,
                                    i: ImaginaryUnit, plan: SamplePlan,
                                    nodes: int = 2048,
                                    window: float = 20.0
                                    ) -> VerificationReport:
    """Membership is equivalent to a bounded Poisson defect of the
    component moduli: C_def = sup (P[|f_k|](x)-|f_k(x)|)/omega(1-|x|) and
    C_lip = slice norm are finite together and comparable within the
    window."""
    records = []
    for m in corpus:
        rec = FunctionRecord(m.name)
        with _guarded(rec):
            b_mod = boundary_norm(m.series, omega, i, plan, values="modulus")
            rec.check("boundary_modulus_norm", b_mod.value,
                      math.isfinite(b_mod.value))
            c_def = _component_defect_sup(m.series, omega, i, plan, nodes)
            c_lip = slice_norm(m.series, omega, i, plan).value
            rec.check("defect_sup", c_def, math.isfinite(c_def))
            rec.check("slice_norm", c_lip, math.isfinite(c_lip))
            # c_lip is quadrature-free and vanishes exactly iff f is
            # constant, in which case the true defect is zero too and the
            # measured one is Poisson-quadrature noise: skip the ratio.
            if c_lip <= 1e-12:
                rec.notes.append("constant member: vacuous pass")
            else:
                ratio = _ratio_or_zero(c_def, c_lip)
                rec.check("defect_over_lip", ratio,
                          1.0 / window <= ratio <= window)
        records.append(rec)
    return VerificationReport(
        suite="poisson_characterization",
        records=records,
        tolerances={"window": window},
    )


def cone_admissible_mask(qs: np.ndarray, i: ImaginaryUnit, sign: float,
                         t_grid: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Boolean mask of rows q=[x0,x1,x2,x3] satisfying
    <q, e^{it}> <= q0 cos t + sign*|vec q| sin t on the whole grid
    (Euclidean inner product on R^4)."""
    qs = np.asarray(qs, dtype=float)
    vec = qs[:, 1:]
    vnorm = np.linalg.norm(vec, axis=1)
    along = vec @ np.array([i.v1, i.v2, i.v3])
    # <q, e^{it}> - q0 cos t = <vec q, i> sin t; condition reduces to
    # (along - sign*|vec|) sin t <= 0 for all grid angles
    gap = (along - sign * vnorm)[:, None] * np.sin(t_grid)[None, :]
    scale = 1.0 + np.linalg.norm(qs, axis=1)
    return np.all(gap <= tol * scale[:, None], axis=1)


def admissible_cone_points(qs: np.ndarray, i: ImaginaryUnit, sign: float,
                           t_grid: np.ndarray) -> np.ndarray:
    mask = cone_admissible_mask(qs, i, sign, t_grid)
    if not mask.any():
        raise NoAdmissibleSamples(f"sign {sign:+.0f}: all points rejected")
    return np.nonzero(mask)[0]


def verify_cone_corollary(corpus, omega: Majorant, i: ImaginaryUnit, plan: SamplePlan,
                          nodes: int = 2048) -> VerificationReport:
    """For points admissible under the cone condition, the Poisson mean of
    ||f|| exceeds twice the value at the matched slice point by at most
    2*C_def*omega(1-|q|). Admissibility on a full angle grid forces the
    imaginary part parallel to i, so the sample mixes on-slice points
    (admissible) with random ball points (rejected and counted). The
    crossed sign pairing is evaluated and reported without a pass
    condition."""
    tol = 1e-9
    t_grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    zs = disc_points(plan, cap=min(plan.max_radius, 1.0 - 10.0 / nodes - 1e-9))[:24]
    on_slice = slice_points_array(i, zs)
    off_slice = np.asarray(
        np.random.default_rng([plan.seed, 41]).normal(size=(24, 4)))
    off_slice *= 0.8 / np.linalg.norm(off_slice, axis=1, keepdims=True)
    qs = np.concatenate([on_slice, off_slice])

    records = []
    for m in corpus:
        rec = FunctionRecord(m.name)
        with _guarded(rec):
            s = SplitSeries.of(m.series, i)
            c_def = _component_defect_sup(m.series, omega, i, plan, nodes)
            worst_aligned = 0.0
            worst_crossed = 0.0
            counts = {}
            seen = np.zeros(len(qs), dtype=bool)
            for sign, label in ((1.0, "plus"), (-1.0, "minus")):
                try:
                    idx = admissible_cone_points(qs, i, sign, t_grid)
                except NoAdmissibleSamples as exc:
                    rec.notes.append(str(exc))
                    counts[label] = 0
                    continue
                counts[label] = int(idx.size)
                seen[idx] = True
                sel = qs[idx]
                # admissible points lie on the slice; the matched complex
                # coordinate carries the branch sign
                zq = sel[:, 0] + sign * 1j * np.linalg.norm(sel[:, 1:], axis=1)
                p_mean = poisson_integral_slice(on_circle(s.modulus), zq, nodes)
                gapw = omega(1.0 - np.abs(zq))
                bound = 2.0 * c_def * gapw + tol * (1.0 + 2.0 * c_def)
                aligned, crossed = (float(np.max((p_mean - 2.0 * s.modulus(z)) - bound))
                                    for z in (zq, zq.conj()))
                worst_aligned = max(worst_aligned, aligned)
                worst_crossed = max(worst_crossed, crossed)
            rec.check("admissible_plus", float(counts.get("plus", 0)), True)
            rec.check("admissible_minus", float(counts.get("minus", 0)), True)
            rec.check("rejected", float(np.sum(~seen)), True)
            rec.check("defect_constant", c_def, True)
            rec.check("aligned_excess", worst_aligned, worst_aligned <= 0.0)
            rec.checks["crossed_excess"] = worst_crossed
        records.append(rec)
    return VerificationReport(
        suite="cone_corollary",
        records=records,
        tolerances={"absolute": tol},
    )


ALL_SUITES = (
    "inclusion_chain",
    "algebraic_closure",
    "intrinsic_invariance",
    "slice_independence",
    "modulus_membership",
    "norm_equivalences",
    "derivative_characterizations",
    "poisson_characterization",
    "cone_corollary",
)


def run_suite(config: RunConfig) -> list[VerificationReport]:
    """Run the selected suites (config.suites, all when None) over the
    configured corpus and plan. A suite that raises is reported as failed;
    the batch always completes."""
    plan = config.plan
    corpus = config.corpus
    omega1 = config.omega
    omega2 = config.omega2
    omega_small = config.omega_small
    unit_i = config.i
    unit_k = config.k
    names = ALL_SUITES if config.suites is None else config.suites

    intrinsic = tuple(m for m in corpus if m.intrinsic)
    builders = {
        "inclusion_chain": lambda: verify_inclusion_chain(
            corpus, omega1, omega2, plan, i=unit_i),
        "algebraic_closure": lambda: verify_algebraic_closure(
            corpus, omega1, omega2, config.a, plan, i=unit_i),
        "intrinsic_invariance": lambda: verify_intrinsic_invariance(
            intrinsic, omega1, unit_i, unit_k, plan),
        "slice_independence": lambda: verify_slice_independence(
            corpus, omega1, unit_i, unit_k, plan),
        "modulus_membership": lambda: verify_modulus_membership(
            corpus, omega1, unit_i, plan),
        "norm_equivalences": lambda: verify_norm_equivalences(
            corpus, omega_small, unit_i, plan, config.nodes, config.window),
        "derivative_characterizations": lambda: verify_derivative_characterizations(
            corpus, omega1, plan, i=unit_i),
        "poisson_characterization": lambda: verify_poisson_characterization(
            corpus, omega1, unit_i, plan, config.nodes, config.window),
        "cone_corollary": lambda: verify_cone_corollary(
            corpus, omega1, unit_i, plan, config.nodes),
    }
    reports = []
    for name in names:
        if name not in builders:
            reports.append(VerificationReport(
                suite=str(name), records=[], tolerances={},
                notes=[f"error: unknown suite {name!r}"]))
            continue
        try:
            reports.append(builders[name]())
        except Exception as exc:  # isolate suite crashes
            reports.append(VerificationReport(
                suite=name, records=[], tolerances={},
                notes=[f"error: {type(exc).__name__}: {exc}"]))
    return reports
