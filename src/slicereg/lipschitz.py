"""Sampled modulus-of-continuity norms and derivative-growth functionals.

Every estimator draws its samples deterministically from a SamplePlan.
Random strata use numpy Generator children seeded from (seed, stratum tag);
deterministic strata use van der Corput / golden-angle sequences. All
streams are prefix-stable: enlarging n_pairs or n_points extends the sample
set, so estimates can only grow under refinement, and identical plans give
identical results bit for bit.

Points of a slice plane are handled in their complex coordinate; values of
a series along the plane come from the split components, so each estimator
is a handful of vectorized polynomial evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .majorant import Majorant
from .poisson import defect_sup
from .quaternion import (
    ImaginaryUnit,
    Quaternion,
    conj_array,
    from_array,
    hmul_array,
    norm_array,
    quat_array,
    slice_point,
    slice_points_array,
)
from .series import (
    SliceSeries,
    SplitSeries,
    cullen_derivative,
    eval_complex,
    evaluate_batch,
    on_circle,
    split_modulus,
    symmetrization,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class DegeneratePlan(ValueError):
    """The plan produced no admissible samples."""


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampling budget for the estimators.

    min_separation is the smallest pair distance kept (guards float
    cancellation in difference quotients); max_radius bounds samples away
    from the sphere.
    """

    n_pairs: int = 4096
    n_points: int = 512
    min_separation: float = 1e-4
    max_radius: float = 0.995
    seed: int = 12345

    def __post_init__(self):
        if self.n_pairs < 4 or self.n_points < 4:
            raise DegeneratePlan("plan needs at least 4 pairs and 4 points")
        if not 0.0 < self.max_radius < 1.0:
            raise DegeneratePlan("max_radius must lie in (0, 1)")
        if not 0.0 < self.min_separation < 2.0 * self.max_radius:
            raise DegeneratePlan("min_separation must lie in (0, 2*max_radius)")
        if self.seed < 0:
            raise DegeneratePlan("seed must be nonnegative")

    def child_rng(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag])


@dataclass(frozen=True)
class NormEstimate:
    """Sampled supremum: always a lower bound on the true norm."""

    value: float
    argmax_pair: tuple[Quaternion, Quaternion]
    samples_used: int


def _vdc(n: int, offset: int = 0) -> np.ndarray:
    """Van der Corput radical-inverse sequence (base 2), prefix-stable."""
    idx = np.arange(offset, offset + n, dtype=np.int64)
    out = np.zeros(n)
    scale = 0.5
    while idx.any():
        out += scale * (idx & 1)
        idx >>= 1
        scale *= 0.5
    return out


def _golden_angles(n: int, offset: int = 0) -> np.ndarray:
    m = np.arange(offset, offset + n, dtype=np.float64)
    return 2.0 * np.pi * np.mod(m * _GOLDEN, 1.0)


def _quarters(n: int) -> tuple[int, int, int, int]:
    # round robin, so no stratum shrinks when n grows
    return (n + 3) // 4, (n + 2) // 4, (n + 1) // 4, n // 4


def disc_pair_coords(plan: SamplePlan, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair stream inside the closed disc of the given radius.

    Four strata: near-diameter chords, independent uniforms, near-diagonal
    offsets down to min_separation, and boundary-to-inner radial pairs.
    """
    eps = plan.min_separation
    n_diam, n_unif, n_diag, n_rad = _quarters(plan.n_pairs)

    th = _golden_angles(n_diam)
    r2 = cap * (1.0 - _vdc(n_diam))
    z1_a = cap * np.exp(1j * th)
    z2_a = -r2 * np.exp(1j * th)

    u = plan.child_rng(11).uniform(size=(n_unif, 4))
    z1_b = cap * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    z2_b = cap * np.sqrt(u[:, 2]) * np.exp(2j * np.pi * u[:, 3])

    u = plan.child_rng(12).uniform(size=(n_diag, 3))
    z1_c = cap * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    delta = np.exp(np.log(eps) * (1.0 - _vdc(n_diag)))  # log-spaced [eps, 1)
    step = delta * np.exp(2j * np.pi * u[:, 2])
    z2_c = z1_c + step
    flip = np.abs(z2_c) > cap
    z2_c[flip] = z1_c[flip] - step[flip]

    th = _golden_angles(n_rad, offset=7)
    r_in = (cap - eps) * _vdc(n_rad)
    z1_d = cap * np.exp(1j * th)
    z2_d = r_in * np.exp(1j * th)

    z1 = np.concatenate([z1_a, z1_b, z1_c, z1_d])
    z2 = np.concatenate([z2_a, z2_b, z2_c, z2_d])
    keep = (np.abs(z1) <= cap) & (np.abs(z2) <= cap) & (np.abs(z1 - z2) >= eps)
    z1, z2 = z1[keep], z2[keep]
    if z1.size == 0:
        raise DegeneratePlan("no admissible slice pairs")
    return z1, z2


def slice_pair_coords(plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    return disc_pair_coords(plan, plan.max_radius)


def ball_pair_coords(plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    """Pair stream in the four-dimensional ball, strata as in the disc."""
    eps = plan.min_separation
    rho = plan.max_radius
    n_diam, n_unif, n_diag, n_rad = _quarters(plan.n_pairs)

    # one array draw per child generator keeps every stratum prefix-stable
    def unit_rows(v):
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    d = unit_rows(plan.child_rng(21).normal(size=(n_diam, 4)))
    q1_a = rho * d
    q2_a = -(rho * (1.0 - _vdc(n_diam)))[:, None] * d

    g = plan.child_rng(22).normal(size=(n_unif, 8))
    u = plan.child_rng(25).uniform(size=(n_unif, 2))
    q1_b = rho * u[:, :1] ** 0.25 * unit_rows(g[:, :4])
    q2_b = rho * u[:, 1:] ** 0.25 * unit_rows(g[:, 4:])

    g = plan.child_rng(23).normal(size=(n_diag, 8))
    u = plan.child_rng(26).uniform(size=(n_diag, 1))
    base = rho * u ** 0.25 * unit_rows(g[:, :4])
    step_dir = unit_rows(g[:, 4:])
    delta = np.exp(np.log(eps) * (1.0 - _vdc(n_diag)))[:, None]
    q2_c = base + delta * step_dir
    flip = np.linalg.norm(q2_c, axis=1) > rho
    q2_c[flip] = base[flip] - (delta * step_dir)[flip]
    q1_c = base

    d = unit_rows(plan.child_rng(24).normal(size=(n_rad, 4)))
    q1_d = rho * d
    q2_d = ((rho - eps) * _vdc(n_rad))[:, None] * d

    q1 = np.concatenate([q1_a, q1_b, q1_c, q1_d])
    q2 = np.concatenate([q2_a, q2_b, q2_c, q2_d])
    sep = np.linalg.norm(q1 - q2, axis=1)
    keep = (
        (np.linalg.norm(q1, axis=1) <= rho)
        & (np.linalg.norm(q2, axis=1) <= rho)
        & (sep >= eps)
    )
    q1, q2 = q1[keep], q2[keep]
    if q1.shape[0] == 0:
        raise DegeneratePlan("no admissible ball pairs")
    return q1, q2


def circle_pair_angles(plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    """Angle pairs on the unit circle with chords >= min_separation."""
    eps = plan.min_separation
    half = plan.n_pairs // 2
    t = plan.child_rng(31).uniform(0.0, 2.0 * np.pi, size=(half, 2))
    t1_a, t2_a = t[:, 0], t[:, 1]

    rest = plan.n_pairs - half
    t1_b = _golden_angles(rest, offset=3)
    # angular gaps log-spaced from ~eps up to pi
    gap = np.pi * np.exp(np.log(eps / np.pi) * (1.0 - _vdc(rest)))
    t2_b = t1_b + gap

    t1 = np.concatenate([t1_a, t1_b])
    t2 = np.concatenate([t2_a, t2_b])
    chord = 2.0 * np.abs(np.sin(0.5 * (t1 - t2)))
    keep = chord >= eps
    if not keep.any():
        raise DegeneratePlan("no admissible circle pairs")
    return t1[keep], t2[keep]


def disc_points(plan: SamplePlan, cap: float | None = None) -> np.ndarray:
    """Point stream in the closed disc of radius cap: the origin, an
    equidistributed bulk, a geometric edge layer, and the cap circle itself."""
    if cap is None:
        cap = plan.max_radius
    n = plan.n_points
    # shares 2:1:1 with no stratum shrinking as n grows
    n_bulk, n_edge, n_circ = (n + 1) // 2, (n + 2) // 4, n // 4

    bulk = cap * np.sqrt(_vdc(n_bulk)) * np.exp(1j * _golden_angles(n_bulk))
    edge_r = cap * (1.0 - np.exp(np.log(1e-3) * _vdc(n_edge, offset=1)))
    edge = edge_r * np.exp(1j * _golden_angles(n_edge, offset=5))
    circ = cap * np.exp(1j * _golden_angles(n_circ, offset=11))
    return np.concatenate([[0.0 + 0.0j], bulk, edge, circ])


def radial_grid(cap: float, n: int) -> np.ndarray:
    """Radii from 0 to cap * (1 - 1e-4), geometric in the gap cap - r."""
    return cap * (1.0 - np.geomspace(1.0, 1e-4, n))


def _require_positive(omega: Majorant, at: float):
    if omega(at) <= 0.0:
        raise ValueError("majorant must be positive away from zero")


def _pair_estimate(ratios: np.ndarray, z1: np.ndarray, z2: np.ndarray,
                   i: ImaginaryUnit) -> NormEstimate:
    k = int(np.argmax(ratios))
    return NormEstimate(
        value=float(ratios[k]),
        argmax_pair=(slice_point(i, complex(z1[k])), slice_point(i, complex(z2[k]))),
        samples_used=int(ratios.size),
    )


def slice_norm(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
               plan: SamplePlan) -> NormEstimate:
    """Sampled sup of ||f(x) - f(y)|| / omega(||x - y||) over pairs of the
    slice disc."""
    z1, z2 = slice_pair_coords(plan)
    _require_positive(omega, plan.min_separation)
    s = SplitSeries.of(f, i)
    num = split_modulus(s.at(z1) - s.at(z2))
    ratios = num / omega(np.abs(z1 - z2))
    return _pair_estimate(ratios, z1, z2, i)


def component_estimates(f: SliceSeries, omega1: Majorant, omega2: Majorant,
                        i: ImaginaryUnit, plan: SamplePlan
                        ) -> tuple[NormEstimate, NormEstimate, NormEstimate]:
    """Per-component sups and the joint two-majorant estimate, on one
    shared pair stream: (C1, C2, joint) with

        joint = sup sqrt( (|dF|/omega1)^2 + (|dG|/omega2)^2 ).
    """
    z1, z2 = slice_pair_coords(plan)
    _require_positive(omega1, plan.min_separation)
    _require_positive(omega2, plan.min_separation)
    s = SplitSeries.of(f, i)
    dF, dG = s.at(z1) - s.at(z2)
    d = np.abs(z1 - z2)
    r1 = np.abs(dF) / omega1(d)
    r2 = np.abs(dG) / omega2(d)
    joint = np.hypot(r1, r2)
    return tuple(_pair_estimate(r, z1, z2, i) for r in (r1, r2, joint))


def component_norm(f: SliceSeries, omega1: Majorant, omega2: Majorant,
                   i: ImaginaryUnit, plan: SamplePlan) -> NormEstimate:
    """Two-majorant slice estimate; collapses to slice_norm when
    omega1 == omega2."""
    return component_estimates(f, omega1, omega2, i, plan)[2]


def global_norm(f: SliceSeries, omega: Majorant, plan: SamplePlan) -> NormEstimate:
    """Sampled sup of the difference quotient over pairs of the full ball."""
    q1, q2 = ball_pair_coords(plan)
    _require_positive(omega, plan.min_separation)
    num = norm_array(evaluate_batch(f, q1) - evaluate_batch(f, q2))
    d = np.linalg.norm(q1 - q2, axis=1)
    ratios = num / omega(d)
    k = int(np.argmax(ratios))
    return NormEstimate(
        value=float(ratios[k]),
        argmax_pair=(from_array(q1[k]), from_array(q2[k])),
        samples_used=int(ratios.size),
    )


def boundary_norm(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
                  plan: SamplePlan, values: str = "function") -> NormEstimate:
    """Difference-quotient sup over pairs of the slice circle.

    values="function" compares f itself, values="modulus" compares ||f||.
    """
    if values not in ("function", "modulus"):
        raise ValueError(f"values must be 'function' or 'modulus', got {values!r}")
    t1, t2 = circle_pair_angles(plan)
    _require_positive(omega, plan.min_separation)
    z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
    s = SplitSeries.of(f, i)
    v1, v2 = s.at(z1), s.at(z2)
    if values == "function":
        num = split_modulus(v1 - v2)
    else:
        num = np.abs(split_modulus(v1) - split_modulus(v2))
    ratios = num / omega(np.abs(z1 - z2))
    return _pair_estimate(ratios, z1, z2, i)


def seminorms_N(fk: np.ndarray, omega: Majorant, i: ImaginaryUnit,
                plan: SamplePlan, nodes: int = 4096
                ) -> tuple[float, float, float]:
    """Three boundary-flavored functionals of one split component.

    N1 = circle norm of |fk| + sup (P[|fk|](x) - |fk(x)|) / omega(1 - |x|)
    N2 = circle norm of |fk| + sup | |fk(z)| - |fk(rz)| | / omega(1 - r)
    N3 = closed-disc difference-quotient norm of |fk|

    fk is an ascending complex coefficient array obtained by splitting along
    the plane of ``i``; samples live in that plane's closed unit disc, which
    the complex coordinates identify with the classical one, so ``i`` only
    names the plane.  P is the classical disc Poisson integral of the
    boundary modulus.
    """
    fk = np.asarray(fk, dtype=complex)
    _require_positive(omega, plan.min_separation)

    def modulus(z):
        return np.abs(eval_complex(fk, z))

    boundary_modulus = on_circle(modulus)
    t1, t2 = circle_pair_angles(plan)
    m1, m2 = boundary_modulus(t1), boundary_modulus(t2)
    chord = np.abs(np.exp(1j * t1) - np.exp(1j * t2))
    circle_part = float(np.max(np.abs(m1 - m2) / omega(chord)))

    cap = min(plan.max_radius, 1.0 - 10.0 / nodes - 1e-9)
    n_rad = max(16, plan.n_points // 16)
    radii = radial_grid(cap, n_rad)
    rays = _golden_angles(8, offset=2)
    xs = (radii[:, None] * np.exp(1j * rays)[None, :]).ravel()

    n1 = circle_part + defect_sup([fk], omega, xs, nodes)

    r2 = radial_grid(1.0 - plan.min_separation, n_rad)
    zeta = np.exp(1j * _golden_angles(32, offset=9))
    inner = modulus(r2[:, None] * zeta[None, :])
    outer = modulus(zeta)[None, :]
    n2 = circle_part + float(np.max(np.abs(outer - inner) / omega(1.0 - r2)[:, None]))

    z1, z2 = disc_pair_coords(plan, 1.0)
    d3 = modulus(z1) - modulus(z2)
    n3 = float(np.max(np.abs(d3) / omega(np.abs(z1 - z2))))

    return n1, n2, n3


DERIVATIVE_MODES = ("full", "plus", "minus")


def derivative_ratio(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
                     mode: str, plan: SamplePlan,
                     cap: float | None = None) -> NormEstimate:
    """Sampled sup of ||f'(x)|| (1 - |x|) / omega(1 - |x|) on the slice disc
    (mode "full"), or of the sandwich combinations ||f' ± i f' i|| in modes
    "plus"/"minus"."""
    if mode not in DERIVATIVE_MODES:
        raise ValueError(f"mode must be one of {DERIVATIVE_MODES}, got {mode!r}")
    xs = disc_points(plan, cap)
    comps = SplitSeries.of(cullen_derivative(f), i).at(xs)
    if mode == "full":
        vals = split_modulus(comps)
    elif mode == "minus":
        vals = 2.0 * np.abs(comps[0])
    else:
        vals = 2.0 * np.abs(comps[1])
    gap = 1.0 - np.abs(xs)
    ratios = vals * gap / omega(gap)
    return _pair_estimate(ratios, xs, xs, i)


@dataclass(frozen=True)
class GrowthCheck:
    """Bounded-growth report at slice points: sandwich left sides against
    twice the local sup, and the quadratic form against its majorant.
    Fields are floats for one point and (n,) arrays for n points."""

    lhs_plus: float | np.ndarray
    lhs_minus: float | np.ndarray
    local_sup: float | np.ndarray
    lhs_quadratic: float | np.ndarray
    rhs_quadratic: float | np.ndarray
    samples: int | np.ndarray

    @property
    def sandwich_slack(self):
        return 2.0 * self.local_sup - np.maximum(self.lhs_plus, self.lhs_minus)

    @property
    def quadratic_slack(self):
        return self.rhs_quadratic - self.lhs_quadratic


def bounded_growth_check(f: SliceSeries, x: Quaternion | np.ndarray,
                         i: ImaginaryUnit, plan: SamplePlan) -> GrowthCheck:
    """Evaluate the bounded-growth inequalities of f at one slice point, or
    at each row of an (n, 4) array of slice points.

    The local sup runs over the disc around x of radius 1 - |x| inside the
    slice plane; by subharmonicity of the component moduli it is sampled on
    the bounding circle only.
    """
    q = quat_array([x]) if isinstance(x, Quaternion) else np.asarray(x, dtype=float)
    y = q[:, 1] * i.v1 + q[:, 2] * i.v2 + q[:, 3] * i.v3
    off = np.linalg.norm(q[:, 1:] - y[:, None] * np.array(i.components()), axis=1)
    if np.any(off > 1e-9):
        raise ValueError("x must lie on the slice plane of i")
    z = np.empty(len(q), dtype=complex)
    z.real, z.imag = q[:, 0], y
    # hypot, as Python's abs(complex); numpy's complex abs may differ in the last bit
    r = np.hypot(z.real, z.imag)
    if np.any(r >= 1.0):
        raise ValueError("x must lie in the open disc")
    s = SplitSeries.of(f, i)

    gap = 1.0 - r
    circle = z[:, None] + gap[:, None] * np.exp(1j * _golden_angles(plan.n_points))
    # one component at a time keeps a single (n, n_points) complex array alive
    a1, a2 = (np.abs(eval_complex(c, circle)) for c in (s.F, s.G))
    m1, m2 = a1.max(axis=1), a2.max(axis=1)
    local_sup = np.max(np.hypot(a1, a2), axis=1)

    values, slopes = s.at(z), s.derivative().at(z)
    f1, f2 = np.hypot(values.real, values.imag)
    d1, d2 = np.hypot(slopes.real, slopes.imag)

    lhs_minus = gap * d1 + 2.0 * f1
    lhs_plus = gap * d2 + 2.0 * f2
    lhs_quad = 0.25 * gap * gap * (d1 * d1 + d2 * d2) + f1 * f1 + f2 * f2
    rhs_quad = (r - 1.0) * (d1 * f1 + d2 * f2) + m1 * m1 + m2 * m2
    fields = (lhs_plus, lhs_minus, local_sup, lhs_quad, rhs_quad,
              np.full(len(q), plan.n_points))
    if isinstance(x, Quaternion):
        return GrowthCheck(*(v[0].item() for v in fields))
    return GrowthCheck(*fields)


@dataclass(frozen=True)
class SchwarzPickReport:
    """Empirical constants of the conjugated two-point criterion."""

    hypothesis_constant: float
    derivative_constant: float
    sup_modulus: float
    contract_ok: bool
    n_used: int
    n_skipped: int
    interpretation: str


INTERPRETATIONS = ("series", "pointwise")


def _squared_norms(a: np.ndarray) -> np.ndarray:
    # libm pow, as the scalar Quaternion norm and inverse square: x*x
    # differs from Python's x**2 in the last bit for about 1 value in 1200
    return np.sum(np.float_power(a, 2.0), axis=-1)


def _conjugated(c: np.ndarray, q: np.ndarray) -> np.ndarray:
    """c^-1 q c row by row, with c^-1 as Quaternion.inverse computes it;
    zero rows of c give inf or nan."""
    inverse = conj_array(c) / _squared_norms(c)[..., None]
    return hmul_array(hmul_array(inverse, q), c)


def _displaced_points(aux: SliceSeries | None, x: np.ndarray, fx: np.ndarray,
                      fpx: np.ndarray, interpretation: str
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The conjugated evaluation points x~ of the two-point criterion, row by
    row, and the mask of rows where the derivative, the value, or the
    auxiliary function vanishes (x~ is undefined there)."""
    value_sq = _squared_norms(fx)
    singular = (np.sqrt(_squared_norms(fpx)) <= 1e-6) | (np.sqrt(value_sq) <= 1e-9)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = _conjugated(fpx, x)
        if interpretation == "series":
            gp = evaluate_batch(aux, p)
            # symmetrized auxiliary = its square here
            singular |= np.float_power(np.sqrt(_squared_norms(gp)), 2.0) <= 1e-9
            moved = _conjugated(gp, p)
        else:
            singular |= np.abs(1.0 - np.float_power(np.sqrt(value_sq), 2.0)) <= 1e-9
            moved = p  # real scalar conjugation is the identity
        return _conjugated(conj_array(fx), moved), singular


def schwarz_pick_criterion(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
                           plan: SamplePlan, interpretation: str = "series"
                           ) -> SchwarzPickReport:
    """Compare sup ||M^2 - conj(f(x)) f(x~)|| / ((1+|x|) omega(1-|x|)) with
    sup M ||f'(x)|| (1-|x|) / omega(1-|x|), where

        x~ = conj(f(x))^-1 T(f'(x)^-1 x f'(x)) conj(f(x)),

    T conjugates by the auxiliary function 1 - conj(f) f. Under the series
    reading the auxiliary is 1 - f^s (real coefficients); under the
    pointwise reading it is the scalar 1 - ||f(x)||^2. Both make T the
    identity wherever defined (real values commute with every quaternion),
    so they differ only in which points get skipped as singular.

    Points with ||f'(x)|| <= 1e-6, ||f(x)|| <= 1e-9, or a vanishing
    auxiliary are skipped and counted. The contract holds when the
    derivative sup is at most 1.25 times the hypothesis sup (plus 1e-12).
    """
    if interpretation not in INTERPRETATIONS:
        raise ValueError(f"interpretation must be in {INTERPRETATIONS}")
    xs = disc_points(plan)
    s = SplitSeries.of(f, i)
    fvals = s.values(xs)
    fpvals = s.derivative().values(xs)
    M = float(np.max(norm_array(fvals)))

    aux = SliceSeries([1.0]) - symmetrization(f) if interpretation == "series" else None
    x_t, singular = _displaced_points(aux, slice_points_array(i, xs), fvals, fpvals,
                                      interpretation)
    keep = ~singular
    r = np.hypot(xs.real, xs.imag)[keep]
    gap = 1.0 - r
    w = omega(gap)
    defect = -hmul_array(conj_array(fvals[keep]), evaluate_batch(f, x_t[keep]))
    defect[:, 0] += M * M  # M^2 - conj(f(x)) f(x~)
    hyp = float(np.max(np.sqrt(_squared_norms(defect)) / ((1.0 + r) * w), initial=0.0))
    der = float(np.max(M * np.sqrt(_squared_norms(fpvals[keep])) * gap / w, initial=0.0))
    used, skipped = int(keep.sum()), int(singular.sum())

    ok = der <= hyp * 1.25 + 1e-12 if used else True
    return SchwarzPickReport(
        hypothesis_constant=float(hyp),
        derivative_constant=float(der),
        sup_modulus=M,
        contract_ok=bool(ok),
        n_used=used,
        n_skipped=skipped,
        interpretation=interpretation,
    )
