"""Property suites: each norm-space proposition becomes an executable check.

A suite runs over a corpus of truncated series and computes the empirical
constants the statement involves. Each check states its relation once, as
lo <= value <= hi, with the explicit constants where the statement provides
them (the 6*C3 bound, the 2x slice sandwich) or a two-sided ratio window
(default K=20) where it only asserts equivalence with unspecified
constants. A check fails unless its value meets its relation and is
finite, so one with no bound is finite-only; measure records a value that
cannot fail. The bounds stay on the record and are not written to the
report. Estimated sups are lower bounds, so every pass criterion is
arranged to be conservative under refinement of the sampling plan.

All sampling is driven by the shared SamplePlan, so reports are
deterministic for a fixed seed.

Each suite is one function, verify_<suite>(config), over the run's one
RunConfig: it reads its weights, slice units, plan, nodes, window and
members from the config, builds what does not depend on the member, and
returns the suite's VerificationReport holding its members and check(rec,
m), which fills a fresh record for one member. run_suite calls every
selected suite function, then runs one member step per member: every
suite's check on that member, after which the member's values leave the
plan's store, so at most one member's values are alive and each is built
once for all suites. The checks read the complex pair streams and their
weights through pair_weights and pair_samples, which build each once per
run on first use; only algebraic_closure reads weights in its suite
function. Everything a run reuses sits in the plan's store under one
lifetime rule: a key that holds a member leaves with that member
(plan.drop, after its last suite), any other key lives for the run. A
member's stored values are its slice moduli for each unit (the seven
rows at unit i, the increment modulus alone at unit k), its five circle
moduli rows, and the two spectra of its boundary moduli at the nodes
angles (circle_spectrum), which N1, the defect sup and both cone branches
read. The run's own entries include the powers of the 144-point defect
grid (in a full run only poisson_characterization builds them, as the
cone then reads every member's stored defect sup). The cone suite builds
the powers of its points in its suite function, for its run. The member
steps build and free nothing longer than _BLOCK pairs or points beside
them: the sups over the pair streams, the ball derivative ratios,
modulus_membership's maxima and algebraic_closure's violations are taken
block by block, so no transient of a step grows with the plan, and a
stream build holds only its one buffer and a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .lipschitz import (
    NormEstimate,
    SamplePlan,
    ball_pair_coords,
    blocked_max,
    boundary_norm,
    bounded_growth_check,
    circle_spectrum,
    component_estimates,
    derivative_ratio,
    disc_points,
    global_norm,
    pair_samples,
    pair_weights,
    ray_grid,
    seminorms_N,
    slice_norm,
)
from .majorant import (
    Majorant,
    PowerMajorant,
    check_regular,
    combine,
    squared,
)
from .poisson import (
    defect_sup,
    poisson_integral_slice,
    resolved_cap,
    slice_powers,
    sq_defect_sup,
)
from .quaternion import (
    E1,
    E2,
    E3,
    ONE,
    ImaginaryUnit,
    Quaternion,
    norm,
)
from .series import (
    SliceSeries,
    cullen_derivative,
    evaluate_batch,
    is_intrinsic,
    split,
    split_modulus,
)

if TYPE_CHECKING:
    from .cli import RunConfig


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
    """One member's values in one suite, and each check's (lo, hi) in
    bounds, which stay on the record: the report does not write them."""

    name: str
    checks: dict[str, float] = field(default_factory=dict)
    witnesses: dict[str, list] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def measure(self, label: str, value: float):
        """Record a value that cannot fail."""
        self.checks[label] = float(value)

    def check(self, label: str, value: float, *, lo: float = -math.inf, hi: float = math.inf):
        """Record a value that fails unless lo <= value <= hi and it is
        finite, so a check with no bound is finite-only."""
        self.checks[label] = v = float(value)
        self.bounds[label] = (lo, hi)
        if not (lo <= v <= hi and math.isfinite(v)):
            self.failures.append(label)

    def witness(self, label: str, est: NormEstimate):
        self.witnesses[label] = [list(p.components()) for p in est.argmax_pair]


@dataclass
class VerificationReport:
    """One suite's report. Its suite function adds the members it checks
    and check(rec, m); member steps append the records. to_dict reads
    neither, nor the records' bounds."""

    suite: str
    records: list[FunctionRecord]
    tolerances: dict[str, float]
    notes: list[str] = field(default_factory=list)
    members: tuple = ()
    check: Callable[[FunctionRecord, CorpusMember], None] | None = None

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
            "records": [{"name": r.name, "passed": r.passed, "checks": dict(r.checks),
                         "witnesses": {k: [list(p) for p in v] for k, v in r.witnesses.items()},
                         "failures": list(r.failures), "notes": list(r.notes)}
                        for r in self.records],
        }


def _failed_suite(name, note: str) -> VerificationReport:
    return VerificationReport(str(name), [], {}, [f"error: {note}"])


def _member_steps(corpus, reports: list[VerificationReport], plan: SamplePlan):
    """Member-major: each member runs the check of every suite that holds
    it, in suite order, on a fresh record; then its values leave the plan's
    store, so at most one member's values are alive. An exception inside a
    check fails that record only."""
    for m in corpus:
        for report in reports:
            if not any(x is m for x in report.members):
                continue
            rec = FunctionRecord(m.name)
            try:
                report.check(rec, m)
            except Exception as exc:
                rec.failures.append(f"exception:{type(exc).__name__}")
                rec.notes.append(str(exc))
            report.records.append(rec)
        plan.drop(m.series)


def _ratio_or_zero(num: float, den: float) -> float:
    # a finite num over an infinite den reads 0 and would pass any upper bound
    if not math.isfinite(den):
        return math.nan
    if den > 0.0:
        return num / den
    return 0.0 if num == 0.0 else math.inf


def verify_inclusion_chain(config: RunConfig) -> VerificationReport:
    """Two-majorant membership controls global membership with constant
    6*C3, C3 = max of the component constants; and the global class embeds
    back into the slice class for the summed majorant.

    The slice norm for the summed majorant is finite-only: its true sup is
    at most the global one, but the two are sampled on different pair
    streams, so the sampled global norm does not bound it.
    """
    omega1, omega2, plan, i = config.omega, config.omega2, config.plan, config.i
    tol = 1e-9
    osum = omega1 + omega2

    def check(rec, m):
        c1, c2, _ = component_estimates(m.series, omega1, omega2, i, plan)
        c3 = max(c1.value, c2.value)
        g = global_norm(m.series, osum, plan)
        s_sum = slice_norm(m.series, osum, i, plan)
        rec.measure("component_c1", c1.value)
        rec.measure("component_c2", c2.value)
        rec.measure("global", g.value)
        rec.check("global_over_6c3", _ratio_or_zero(g.value, 6.0 * c3), hi=1.0 + tol)
        rec.check("slice_sum_norm", s_sum.value)
        rec.witness("global", g)

    return VerificationReport("inclusion_chain", [], {"ratio_max": 1.0 + tol},
                              members=config.corpus, check=check)


def verify_algebraic_closure(config: RunConfig) -> VerificationReport:
    """Right-module closure: f*a + g stays in the class with constant
    ||a||*C_f + C_g, and the components of f*a obey the swapped-majorant
    bound built by combine(). Both are checked pair-by-pair against
    constants sampled on the same pair stream, so they hold exactly up to
    roundoff. The partner g of a member is the next member by position,
    wrapping around. The member's constants come from the estimators; the
    partner's values are evaluated here."""
    omega1, omega2, a, plan, i = config.omega, config.omega2, config.a, config.plan, config.i
    corpus = config.corpus
    tol = 1e-9
    a1n, a2n = map(abs, split(SliceSeries([a]), i).C[:, 0])
    mu1, mu2 = combine(a1n, a2n, omega1, omega2)
    z1, z2, w1, mu1d, mu2d = pair_weights(plan, "slice", omega1, mu1, mu2)
    partners = iter(corpus[1:] + corpus[:1])
    names = ("linear_closure_violation", "combine_component1_violation",
             "combine_component2_violation")

    def diffs(s, b):
        return s.at(z1[b]) - s.at(z2[b])

    def check(rec, m):
        partner = next(partners)
        cf = slice_norm(m.series, omega1, i, plan).value
        c1, c2, _ = component_estimates(m.series, omega1, omega2, i, plan)
        c3 = max(c1.value, c2.value)
        fa = m.series * a
        g, fa, combo = (split(s, i) for s in (partner.series, fa, fa + partner.series))
        cg = float(blocked_max(lambda b: split_modulus(diffs(g, b)) / w1[b], z1.size))

        def rows(b):
            """Over the pairs b: lhs, each violation's side minus its bound,
            then 1 where that bound is not finite."""
            lhs = split_modulus(diffs(combo, b))
            with np.errstate(over="ignore"):
                bounds = np.stack(((norm(a) * cf + cg) * w1[b], c3 * mu1d[b],
                                   c3 * mu2d[b])) * (1.0 + tol)
            # inf - inf where a bound overflowed: that violation is read as inf
            with np.errstate(invalid="ignore"):
                excess = np.stack((lhs, *np.abs(diffs(fa, b)))) - bounds
            return np.vstack((lhs, excess, ~np.isfinite(bounds)))

        # one pass, block by block: the floor needs the max of lhs over all pairs
        top = blocked_max(rows, z1.size)
        floor = tol * (1.0 + float(top[0]))
        # a bound that overflows on any pair holds nothing there
        for name, excess, overflow in zip(names, top[1:4], top[4:]):
            rec.check(name, math.inf if overflow else float(excess), hi=floor)

    return VerificationReport("algebraic_closure", [], {"relative": tol},
                              [f"a = [{a.x0}, {a.x1}, {a.x2}, {a.x3}]"], corpus, check)


def verify_intrinsic_invariance(config: RunConfig) -> VerificationReport:
    """Real-coefficient series have the same norm on every slice; their
    second split component vanishes, collapsing the two-majorant norm onto
    the first component. Only the intrinsic members are checked; a corpus
    without one fails the suite, which would check nothing."""
    omega, i, k, plan = config.omega, config.i, config.k, config.plan
    tol = 1e-10
    other = PowerMajorant(0.75)
    corpus = tuple(m for m in config.corpus if m.intrinsic)
    notes = [] if corpus else ["error: no intrinsic member in the corpus"]

    def check(rec, m):
        n_i = slice_norm(m.series, omega, i, plan)
        n_k = slice_norm(m.series, omega, k, plan)
        scale = max(1.0, n_i.value)
        rec.measure("norm_i", n_i.value)
        rec.check("slice_gap", abs(n_i.value - n_k.value), hi=tol * scale)
        c1, c2, joint = component_estimates(m.series, omega, other, i, plan)
        rec.check("second_component", c2.value, hi=tol)
        rec.check("component_vs_slice", abs(joint.value - n_i.value), hi=1e-12 * scale)

    return VerificationReport("intrinsic_invariance", [], {"paired_sampling": tol},
                              notes, corpus, check)


def verify_slice_independence(config: RunConfig) -> VerificationReport:
    """Norms on two slices agree within a factor 2 (checked with relative
    slack 0.1, so the window is [1/2.2, 2.2]); intrinsic members agree
    exactly under the paired pair stream."""
    omega, i, k, plan = config.omega, config.i, config.k, config.plan
    bound = 2.2

    def check(rec, m):
        n_i = slice_norm(m.series, omega, i, plan).value
        n_k = slice_norm(m.series, omega, k, plan).value
        ratio = 1.0 if n_i == 0.0 and n_k == 0.0 else _ratio_or_zero(n_i, n_k)
        rec.check("ratio", ratio, lo=1.0 / bound, hi=bound)
        if m.intrinsic:
            rec.check("intrinsic_gap", abs(ratio - 1.0), hi=1e-10)

    return VerificationReport("slice_independence", [], {"ratio_window": bound},
                              members=config.corpus, check=check)


def verify_modulus_membership(config: RunConfig) -> VerificationReport:
    """Membership passes to the modulus and to the two sandwich moduli:
    per sampled pair, | ||f(x)|| - ||f(y)|| | <= ||f(x)-f(y)|| and the
    sandwich-modulus differences are <= 2 ||f(x)-f(y)||, hence the modulus
    norms are controlled by the slice norm."""
    omega, i, plan = config.omega, config.i, config.plan
    tol = 1e-12

    def check(rec, m):
        # the member's stored moduli, |F|, |G| at each end and the increment
        # moduli |dF|, |dG|, all through split_modulus, which these checks
        # test; the maxima are taken block by block
        z1, _, mods, w = pair_samples(m.series, i, plan, "slice", omega)

        def excesses(b):
            at_z1, at_z2 = mods[1:3, b], mods[3:5, b]
            full = split_modulus(mods[5:, b])
            mod = np.abs(split_modulus(at_z1) - split_modulus(at_z2))
            s_minus, s_plus = 2.0 * np.abs(at_z1 - at_z2)
            return np.stack([full, mod - full, np.maximum(s_minus, s_plus) - 2.0 * full,
                             mod / w[b], full / w[b]])

        f_max, v_rt, v_sw, mod_norm, f_norm = blocked_max(excesses, z1.size).tolist()
        floor = tol * (1.0 + f_max)
        rec.check("reverse_triangle_violation", v_rt, hi=floor)
        rec.check("sandwich_vs_double_violation", v_sw, hi=2.0 * floor)
        rec.check("modulus_norm", mod_norm, hi=f_norm * (1.0 + tol) + floor)
        rec.measure("function_norm", f_norm)

    return VerificationReport("modulus_membership", [], {"pointwise": tol},
                              members=config.corpus, check=check)


def _defect_grid(plan: SamplePlan, nodes: int) -> np.ndarray:
    """The radial/ray grid of disc points the Poisson-defect sups run over."""
    return ray_grid(resolved_cap(plan.max_radius, nodes), 24, 6, 4)


def _component_defect_sup(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
                          plan: SamplePlan, nodes: int) -> float:
    """sup over the defect grid and both split components of (P[|f_k|](x)
    - |f_k(x)|) / omega(1-|x|), P by the trapezoid rule from f's stored
    circle_spectrum at the grid's stored powers, computed once per plan
    and arguments: the Poisson and cone suites share it."""
    def build():
        grid = plan.memo(("defect_grid", nodes),
                         lambda: slice_powers(_defect_grid(plan, nodes), nodes))
        sups = defect_sup(split(f, i).C, omega, grid, nodes, circle_spectrum(f, i, plan, nodes)[0])
        return max(0.0, float(np.max(sups)))

    return plan.memo(("defect_sup", f, omega, i, nodes), build)


def verify_norm_equivalences(config: RunConfig) -> VerificationReport:
    """The squared slice norm, the three component-summed boundary
    functionals, and the squared-modulus Poisson-defect functional are
    pairwise comparable within the window; all-zero members pass
    vacuously if the five are finite.

    Needs omega and omega^2 both regular; the default config uses the 1/4
    power so its square is the 1/2 power. A weight that check_regular
    rejects fails every member with omega_not_regular.
    """
    omega, i, plan = config.omega_small, config.i, config.plan
    nodes, window = config.nodes, config.window
    rejected = [c for c in (check_regular(omega), check_regular(squared(omega)))
                if not c.is_regular]
    xs = _defect_grid(plan, nodes)

    def check(rec, m):
        if rejected:
            # a bound no value meets: an uncertified weight fails every member
            rec.check("omega_not_regular", rejected[0].empirical_C, hi=-math.inf)
            return
        lam2 = slice_norm(m.series, omega, i, plan).value ** 2
        # Python floats: numpy's float64 ** 2 is x*x, not libm pow
        sums = [nf ** 2 + ng ** 2 for nf, ng in
                (n.tolist() for n in seminorms_N(m.series, omega, i, plan, nodes))]
        pdef = max(0.0, float(np.max(sq_defect_sup(split(m.series, i).C, omega, xs))))
        funcs = {"slice_sq": lam2, "n1_sum": sums[0], "n2_sum": sums[1],
                 "n3_sum": sums[2], "poisson_sq_defect": pdef}
        scale = max(funcs.values())
        vacuous = max(lam2, sums[1], sums[2]) <= 1e-12
        # strictly above the threshold, unless vacuous: then only finite
        lo = -math.inf if vacuous else math.nextafter(1e-12 * max(1.0, scale), math.inf)
        for label, v in funcs.items():
            rec.check(label, v, lo=lo)
        if vacuous:
            rec.notes.append("constant member: vacuous pass")
            return
        least = min(funcs.values())
        ratio = scale / least if least > 0 else math.inf
        rec.check("max_over_min", ratio, hi=window)

    return VerificationReport("norm_equivalences", [], {"window": window},
                              members=config.corpus, check=check)


def _ball_derivative_ratios(fp: SliceSeries, qs: np.ndarray, gaps: np.ndarray,
                            wq: np.ndarray, i: ImaginaryUnit) -> tuple[float, float]:
    """sup ||fp(q)|| gaps / wq over the ball samples q, and the same sup of
    the larger modulus at the two slice points q projects to, taken _BLOCK
    samples at a time, so no array of the samples' length is built."""
    sp = split(fp, i)

    def ratios(b):
        q = qs[b]
        full = np.linalg.norm(evaluate_batch(fp, q), axis=1) * gaps[b] / wq[b]
        proj = q[:, 0] + 1j * np.linalg.norm(q[:, 1:], axis=1)
        pvals = np.maximum(sp.modulus(proj), sp.modulus(proj.conj()))
        return np.stack([full, pvals * gaps[b] / wq[b]])

    g_ratio, p_ratio = blocked_max(ratios, len(qs)).tolist()
    return g_ratio, p_ratio


def verify_derivative_characterizations(config: RunConfig) -> VerificationReport:
    """Derivative growth: the weighted derivative sups are finite and
    radially stable; the full-ball derivative sup is controlled by twice
    the slice sup (checked exactly by folding the sampled projections into
    the slice stream); the one-point growth inequalities hold at 100
    points; and the full derivative ratio is controlled by the component
    constant times the regularity constant of omega. A weight that
    check_regular rejects fails every member with omega_not_regular."""
    omega, plan, i = config.omega, config.plan, config.i
    tol = 1e-8
    cert = check_regular(omega)
    mixed_window = 6.0 * cert.empirical_C
    qs = ball_pair_coords(plan)[0]
    gaps = 1.0 - np.linalg.norm(qs, axis=1)
    wq = omega(gaps)
    growth_points = disc_points(plan, cap=min(plan.max_radius, 0.99))[:100]
    trend = []
    for deg in (8, 16, 32):
        log_like = SliceSeries([0.0] + [1.0 / n for n in range(1, deg + 1)])
        trend.append(derivative_ratio(log_like, PowerMajorant(0.5), i, plan)[0].value)
    notes = [
        "truncation trend (degrees 8,16,32): "
        + ", ".join(f"{v:.6f}" for v in trend)
        + (" [increasing]" if trend[0] < trend[1] < trend[2] else "")
    ]

    def check(rec, m):
        ests = derivative_ratio(m.series, omega, i, plan)
        inners = derivative_ratio(m.series, omega, i, plan, cap=0.9)
        for mode, est, inner in zip(("full", "plus", "minus"), ests, inners):
            rec.check(f"ratio_{mode}", est.value)
            growth = _ratio_or_zero(est.value, inner.value) if inner.value else 1.0
            rec.measure(f"radial_stability_{mode}", growth)

        g_ratio, p_ratio = _ball_derivative_ratios(cullen_derivative(m.series), qs,
                                                   gaps, wq, i)
        s_aug = max(ests[0].value, p_ratio)
        rec.check("global_derivative_ratio", g_ratio, hi=2.0 * s_aug * (1.0 + 1e-12) + tol)

        chk = bounded_growth_check(m.series, growth_points, i, plan)
        scale = 1.0 + chk.local_sup
        rec.check("growth_sandwich_slack", np.min(chk.sandwich_slack / scale), lo=-tol)
        # libm pow, as Python's float ** 2; scale * scale may differ in the last bit
        worst5 = np.min(chk.quadratic_slack / np.float_power(scale, 2.0))
        rec.check("growth_quadratic_slack", worst5, lo=-tol)

        if cert.is_regular:
            _, _, joint = component_estimates(m.series, omega, omega, i, plan)
            mixed = _ratio_or_zero(ests[0].value, math.sqrt(2.0) * joint.value)
            rec.check("mixed_bound_constant", mixed, hi=mixed_window * (1.0 + 1e-9))
        else:
            # a bound no value meets: an uncertified weight fails every member
            rec.check("omega_not_regular", cert.empirical_C, hi=-math.inf)

    return VerificationReport("derivative_characterizations", [],
                              {"slack": tol, "mixed_window": mixed_window}, notes,
                              config.corpus, check)


def verify_poisson_characterization(config: RunConfig) -> VerificationReport:
    """Membership is equivalent to a bounded Poisson defect of the
    component moduli: C_def = sup (P[|f_k|](x)-|f_k(x)|)/omega(1-|x|) and
    C_lip = slice norm are finite together and comparable within the
    window."""
    omega, i, plan = config.omega, config.i, config.plan
    nodes, window = config.nodes, config.window

    def check(rec, m):
        b_mod = boundary_norm(m.series, omega, i, plan)[1]
        rec.check("boundary_modulus_norm", b_mod.value)
        c_def = _component_defect_sup(m.series, omega, i, plan, nodes)
        c_lip = slice_norm(m.series, omega, i, plan).value
        rec.check("defect_sup", c_def)
        rec.check("slice_norm", c_lip)
        # c_lip is quadrature-free and vanishes exactly iff f is
        # constant, in which case the true defect is zero too and the
        # measured one is Poisson-quadrature noise: skip the ratio.
        if c_lip <= 1e-12:
            rec.notes.append("constant member: vacuous pass")
        else:
            ratio = _ratio_or_zero(c_def, c_lip)
            rec.check("defect_over_lip", ratio, lo=1.0 / window, hi=window)

    return VerificationReport("poisson_characterization", [], {"window": window},
                              members=config.corpus, check=check)


def verify_cone_corollary(config: RunConfig) -> VerificationReport:
    """For points admissible under the cone condition, the Poisson mean of
    ||f|| exceeds twice the value at the matched slice point by at most
    2*C_def*omega(1-|q|). For the sign s = +-1, admissibility at every angle
    t reads (<vec q, i> - s*|vec q|) sin t <= 0, which holds exactly when
    <vec q, i> = s*|vec q|: vec q on the ray of s*i. So the admissible points
    are the slice points x + y i with s*y >= 0, and the suite samples only
    the slice, in its complex coordinate: branch s holds the capped disc
    points z with s*Im z >= 0, the origin in both. The crossed sign pairing
    is evaluated and reported without a pass condition."""
    omega, i, plan, nodes = config.omega, config.i, config.plan, config.nodes
    tol = 1e-9
    zs = disc_points(plan, cap=resolved_cap(plan.max_radius, nodes))[:24]
    # the branches depend on the sample only, so every member shares them
    branches, counts = [], {}
    for sign, label in ((1.0, "plus"), (-1.0, "minus")):
        zq = zs[sign * zs.imag >= 0.0]
        counts[f"admissible_{label}"] = zq.size
        # built once here, the branch's powers serve every member's mean
        branches.append((zq, omega(1.0 - np.abs(zq)), slice_powers(zq, nodes)))

    def check(rec, m):
        s = split(m.series, i)
        c_def = _component_defect_sup(m.series, omega, i, plan, nodes)
        spectrum = circle_spectrum(m.series, i, plan, nodes)[1]
        # np.max keeps a NaN excess, where Python's max would drop it
        aligned, crossed = [0.0], [0.0]
        for zq, gapw, powers in branches:
            p_mean = poisson_integral_slice(spectrum, powers, nodes)
            bound = 2.0 * c_def * gapw + tol * (1.0 + 2.0 * c_def)
            for maxima, z in ((aligned, zq), (crossed, zq.conj())):
                maxima.append(np.max((p_mean - 2.0 * s.modulus(z)) - bound))
        for label, count in counts.items():
            rec.measure(label, count)
        rec.check("defect_constant", c_def)
        rec.check("aligned_excess", np.max(aligned), hi=0.0)
        rec.measure("crossed_excess", np.max(crossed))

    return VerificationReport("cone_corollary", [], {"absolute": tol},
                              members=config.corpus, check=check)


# run_suite calls verify_<name> through the module's globals, so a wrapper
# set on slicereg.verify sees every call
ALL_SUITES = (
    "inclusion_chain", "algebraic_closure", "intrinsic_invariance",
    "slice_independence", "modulus_membership", "norm_equivalences",
    "derivative_characterizations", "poisson_characterization", "cone_corollary",
)


def run_suite(config: RunConfig) -> list[VerificationReport]:
    """Run the selected suites (config.suites, all when None) over the
    configured corpus and plan, and return the reports their suite
    functions built, in selection order. The corpus is loaded first, so a
    bad corpus file is refused before any suite runs. Every suite function
    runs next; then each member runs every suite's check in one member
    step, so its values are built once and dropped after its last suite. A
    suite whose function raises, or whose name is unknown, is reported as
    failed; the batch always completes."""
    corpus = config.corpus
    reports = []
    for name in ALL_SUITES if config.suites is None else config.suites:
        if name not in ALL_SUITES:
            reports.append(_failed_suite(name, f"unknown suite {name!r}"))
            continue
        try:
            reports.append(globals()[f"verify_{name}"](config))
        except Exception as exc:  # isolate set-up crashes
            reports.append(_failed_suite(name, f"{type(exc).__name__}: {exc}"))
    _member_steps(corpus, reports, config.plan)
    return reports
