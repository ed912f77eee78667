"""Sampled modulus-of-continuity norms and derivative-growth functionals.

Every estimator draws its samples deterministically from a SamplePlan.
Random strata use numpy Generator children seeded from (seed, stratum tag);
deterministic strata use van der Corput / golden-angle sequences. All
streams are prefix-stable: enlarging n_pairs or n_points extends the sample
set, so estimates can only grow under refinement, and identical plans give
identical results bit for bit.

Each plan carries its own store: a stream or a shared constant is built
once per plan and argument values and read from the store afterwards,
read-only. The store lives and dies with the plan, so a run that holds one
plan builds each stream once, and nothing is kept between runs. The
complex pair streams are named: "slice" (the slice disc), "circle" (the
unit circle, stored as points) and "disc" (the closed unit disc).
pair_weights(plan, stream, *omegas) reads a stream's pairs and, stored once
per weight, omega of their distances. pair_samples(f, i, plan, stream,
*omegas) adds a series' own values, stored once per stream, series and
unit from one evaluation at either end of the pairs: one _pair_moduli block
of the moduli |dF|, |dG| of its split increments, their hypot, and |F|,
|G| at both ends. A series' values stay until plan.drop(f); a run drops
each member's after the member's last suite, so at most one member's
values are alive. Poisson means need no stored array: the spectral
trapezoid builds nothing of size points x nodes.

Points of a slice plane are handled in their complex coordinate; values of
a series along the plane come from the two coefficient rows of split(f, i),
so each estimator is a handful of vectorized complex Horner evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .majorant import Majorant
from .poisson import defect_sup, resolved_cap
from .quaternion import (
    ImaginaryUnit,
    Quaternion,
    conj_array,
    from_array,
    hmul_array,
    norm_array,
    slice_point,
    slice_points_array,
)
from .series import (
    _BLOCK,
    SliceSeries,
    cullen_derivative,
    eval_complex,
    evaluate_batch,
    split,
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

    def memo(self, key, build):
        """build() on the first call with this key, the stored value after.

        The store sits in the instance __dict__ beside the fields, so
        equality and hashing still read the fields only. Arrays, alone or
        in a tuple, are stored read-only, as every later caller shares them.
        """
        store = self.__dict__.setdefault("_store", {})
        if key not in store:
            value = build()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            store[key] = value
        return store[key]

    def drop(self, obj):
        """Remove every stored value whose key holds obj (by identity)."""
        store = self.__dict__.get("_store", {})
        for key in [k for k in store if isinstance(k, tuple) and any(x is obj for x in k)]:
            del store[key]


@dataclass(frozen=True)
class NormEstimate:
    """Sampled supremum: always a lower bound on the true norm."""

    value: float
    argmax_pair: tuple[Quaternion, Quaternion]
    samples_used: int


def _vdc(n: int, offset: int = 0) -> np.ndarray:
    """Van der Corput radical-inverse sequence (base 2), prefix-stable.

    One pass per byte of the largest index: byte k of the index, bit
    reversed, is worth rev / 256^(k+1). Every term and partial sum is an
    exact dyadic, so the bits are those of the sum taken bit by bit."""
    idx = np.arange(offset, offset + n, dtype="<i8")
    out = np.zeros(n)
    byte_col = np.arange(256, dtype=np.uint8)[:, None]
    rev = np.packbits(np.unpackbits(byte_col, axis=1), axis=1, bitorder="little")[:, 0]
    digits = idx.view(np.uint8).reshape(n, 8)
    scale = 1.0
    for k in range((max(offset + n - 1, 0).bit_length() + 7) // 8):
        scale /= 256.0
        out += (scale * rev)[digits[:, k]]
    return out


def _golden_angles(n: int, offset: int = 0) -> np.ndarray:
    m = np.arange(offset, offset + n, dtype=np.float64)
    return 2.0 * np.pi * np.mod(m * _GOLDEN, 1.0)


def _quarters(n: int) -> tuple[int, int, int, int]:
    # round robin, so no stratum shrinks when n grows
    return (n + 3) // 4, (n + 2) // 4, (n + 1) // 4, n // 4


def disc_pair_coords(plan: SamplePlan, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair stream inside the closed disc of the given radius, built once
    per plan and cap.

    Four strata: near-diameter chords, independent uniforms, near-diagonal
    offsets down to min_separation, and boundary-to-inner radial pairs.
    """
    return plan.memo(("disc_pairs", cap), lambda: _disc_pairs(plan, cap))


def _disc_pairs(plan: SamplePlan, cap: float) -> tuple[np.ndarray, np.ndarray]:
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
    """Pair stream in the four-dimensional ball, strata as in the disc,
    built once per plan: (q1, q2), each (N, 4) and the transposed view of
    C-contiguous (4, N) component rows."""
    return plan.memo("ball_pairs", lambda: _ball_pairs(plan))


def _ball_pairs(plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    eps = plan.min_separation
    rho = plan.max_radius
    n_diam, n_unif, n_diag, n_rad = _quarters(plan.n_pairs)
    # component-major: pair p is column p of the (4, n_pairs) rows q1, q2,
    # each stratum a block of columns; norm_array of the transposed rows
    # sums the squares in component order, as np.linalg.norm of the pairs
    q1, q2 = np.empty((2, 4, plan.n_pairs))
    b, c = n_diam + n_unif, n_diam + n_unif + n_diag

    # one array draw per child generator keeps every stratum prefix-stable
    def unit_rows(v):
        """(n, 4) draws as (4, n) rows, each column scaled to unit norm."""
        return v.T / norm_array(v)

    d = unit_rows(plan.child_rng(21).normal(size=(n_diam, 4)))
    np.multiply(rho, d, out=q1[:, :n_diam])
    np.multiply(-(rho * (1.0 - _vdc(n_diam))), d, out=q2[:, :n_diam])

    g = plan.child_rng(22).normal(size=(n_unif, 8))
    u = plan.child_rng(25).uniform(size=(n_unif, 2))
    np.multiply(rho * u[:, 0] ** 0.25, unit_rows(g[:, :4]), out=q1[:, n_diam:b])
    np.multiply(rho * u[:, 1] ** 0.25, unit_rows(g[:, 4:]), out=q2[:, n_diam:b])

    g = plan.child_rng(23).normal(size=(n_diag, 8))
    u = plan.child_rng(26).uniform(size=n_diag)
    base = q1[:, b:c]
    np.multiply(rho * u ** 0.25, unit_rows(g[:, :4]), out=base)
    step = np.exp(np.log(eps) * (1.0 - _vdc(n_diag))) * unit_rows(g[:, 4:])
    q2_c = np.add(base, step, out=q2[:, b:c])
    np.subtract(base, step, out=q2_c, where=norm_array(q2_c.T) > rho)

    d = unit_rows(plan.child_rng(24).normal(size=(n_rad, 4)))
    np.multiply(rho, d, out=q1[:, c:])
    np.multiply((rho - eps) * _vdc(n_rad), d, out=q2[:, c:])

    keep = ((norm_array(q1.T) <= rho) & (norm_array(q2.T) <= rho)
            & (norm_array((q1 - q2).T) >= eps))
    if not keep.any():
        raise DegeneratePlan("no admissible ball pairs")
    # compress keeps the kept rows C-contiguous, as q1[:, keep] would not
    return np.compress(keep, q1, axis=1).T, np.compress(keep, q2, axis=1).T


def circle_pair_angles(plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    """Angle pairs on the unit circle with chords >= min_separation. Not
    stored: the circle pair stream keeps only the points they give."""
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


# the complex pair streams by name, each built once per plan; the entries
# reach disc_pair_coords and circle_pair_angles through the module globals,
# so a wrapper set on this module sees every build
_PAIR_STREAMS = {
    "slice": lambda plan: slice_pair_coords(plan),
    "circle": lambda plan: plan.memo(
        "circle_points", lambda: tuple(np.exp(1j * t) for t in circle_pair_angles(plan))),
    "disc": lambda plan: disc_pair_coords(plan, 1.0),
}


def pair_weights(plan: SamplePlan, stream: str, *omegas: Majorant) -> tuple[np.ndarray, ...]:
    """The pairs z1, z2 of a named stream: "slice" (the slice disc of
    radius max_radius), "circle" (the points e^{it1}, e^{it2} of
    circle_pair_angles) or "disc" (the closed unit disc); then
    omega(|z1 - z2|) for each weight, built once per plan, stream and
    weight."""
    z1, z2 = _PAIR_STREAMS[stream](plan)
    return (z1, z2, *(plan.memo((stream, "weight", w), lambda w=w: w(np.abs(z1 - z2)))
                      for w in omegas))


def disc_points(plan: SamplePlan, cap: float | None = None) -> np.ndarray:
    """Point stream in the closed disc of radius cap (max_radius when None):
    the origin, an equidistributed bulk, a geometric edge layer, and the cap
    circle itself; built once per plan and cap."""
    if cap is None:
        cap = plan.max_radius
    return plan.memo(("disc_points", cap), lambda: _disc_points(plan, cap))


def _disc_points(plan: SamplePlan, cap: float) -> np.ndarray:
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


def ray_grid(cap: float, n_radii: int, n_rays: int, offset: int) -> np.ndarray:
    """radial_grid(cap, n_radii) along n_rays golden-angle rays (starting
    at index offset), flattened radius-major to complex points."""
    rays = np.exp(1j * _golden_angles(n_rays, offset))
    return (radial_grid(cap, n_radii)[:, None] * rays[None, :]).ravel()


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


def _pair_moduli(f: SliceSeries, i: ImaginaryUnit, z1: np.ndarray,
                 z2: np.ndarray) -> np.ndarray:
    """One (7, N) block of the split components F, G of f over the pairs
    z1, z2, from one evaluation at each end: rows |dF|, |dG| of the
    increments, their hypot (the split_modulus of the increment), then
    |F|, |G| at z1 and |F|, |G| at z2, each a (2, N) row pair as
    split_modulus reads it."""
    s = split(f, i)
    out = np.empty((7, z1.size))
    v1, v2 = s.at(z1), s.at(z2)
    np.abs(v1, out=out[3:5])
    np.abs(v2, out=out[5:])
    v1 -= v2
    np.abs(v1, out=out[:2])
    np.hypot(out[0], out[1], out=out[2])
    return out


def pair_samples(f: SliceSeries, i: ImaginaryUnit, plan: SamplePlan, stream: str,
                 *omegas: Majorant) -> tuple[np.ndarray, ...]:
    """z1, z2, then f's _pair_moduli block over the named stream's pairs,
    then the weights of pair_weights. The block is built once per stream,
    series and unit and kept until plan.drop(f)."""
    for omega in omegas:
        _require_positive(omega, plan.min_separation)
    z1, z2, *ws = pair_weights(plan, stream, *omegas)
    mods = plan.memo((stream, "moduli", f, i), lambda: _pair_moduli(f, i, z1, z2))
    return (z1, z2, mods, *ws)


def slice_norm(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
               plan: SamplePlan) -> NormEstimate:
    """Sampled sup of ||f(x) - f(y)|| / omega(||x - y||) over pairs of the
    slice disc."""
    z1, z2, mods, w = pair_samples(f, i, plan, "slice", omega)
    return _pair_estimate(mods[2] / w, z1, z2, i)


def component_estimates(f: SliceSeries, omega1: Majorant, omega2: Majorant,
                        i: ImaginaryUnit, plan: SamplePlan
                        ) -> tuple[NormEstimate, NormEstimate, NormEstimate]:
    """Per-component sups and the joint two-majorant estimate, on one
    shared pair stream: (C1, C2, joint) with

        joint = sup sqrt( (|dF|/omega1)^2 + (|dG|/omega2)^2 ).
    """
    z1, z2, mods, w1, w2 = pair_samples(f, i, plan, "slice", omega1, omega2)
    r1 = mods[0] / w1
    r2 = mods[1] / w2
    joint = np.hypot(r1, r2)
    return tuple(_pair_estimate(r, z1, z2, i) for r in (r1, r2, joint))


def global_norm(f: SliceSeries, omega: Majorant, plan: SamplePlan) -> NormEstimate:
    """Sampled sup of the difference quotient over pairs of the full ball."""
    q1, q2 = ball_pair_coords(plan)
    _require_positive(omega, plan.min_separation)
    diff = evaluate_batch(f, q1)
    diff -= evaluate_batch(f, q2)
    # the distances are recomputed, not stored beside the stream: storing
    # them raised the peak RSS of the 65536-pair verify by about 0.8 MB
    # (2-CPU Xeon, numpy 2.4.6)
    ratios = norm_array(diff) / omega(norm_array(q1 - q2))
    k = int(np.argmax(ratios))
    return NormEstimate(
        value=float(ratios[k]),
        argmax_pair=(from_array(q1[k]), from_array(q2[k])),
        samples_used=int(ratios.size),
    )


def boundary_norm(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
                  plan: SamplePlan) -> tuple[NormEstimate, NormEstimate]:
    """Difference-quotient sups over pairs of the slice circle, from f's
    stored circle moduli: (function, modulus) compare f itself and ||f||."""
    z1, z2, mods, w = pair_samples(f, i, plan, "circle", omega)
    return (_pair_estimate(mods[2] / w, z1, z2, i),
            _pair_estimate(np.abs(split_modulus(mods[3:5]) - split_modulus(mods[5:])) / w,
                           z1, z2, i))


def seminorms_N(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
                plan: SamplePlan, nodes: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three boundary-flavored functionals of each split component f_k of f
    along the plane of i, as (N1, N2, N3), each a length-2 array over the
    components (F, G):

    N1 = circle norm of |f_k| + sup (P[|f_k|](x) - |f_k(x)|) / omega(1 - |x|)
    N2 = circle norm of |f_k| + sup | |f_k(z)| - |f_k(rz)| | / omega(1 - r)
    N3 = closed-disc difference-quotient norm of |f_k|

    Samples live in the plane's closed unit disc, which the complex
    coordinates identify with the classical one; P is the classical disc
    Poisson integral of the boundary modulus.
    """
    _, _, mods, w = pair_samples(f, i, plan, "circle", omega)
    s = split(f, i)

    def moduli(z):
        return np.abs(s.at(z))

    circle_part = np.max(np.abs(mods[3:5] - mods[5:]) / w, axis=1)

    n_rad = max(16, plan.n_points // 16)
    xs = ray_grid(resolved_cap(plan.max_radius, nodes), n_rad, 8, 2)
    n1 = circle_part + defect_sup(s.C, omega, xs, nodes)

    cap = 1.0 - plan.min_separation
    inner = moduli(ray_grid(cap, n_rad, 32, 9).reshape(n_rad, 32))
    outer = moduli(np.exp(1j * _golden_angles(32, offset=9)))[:, None, :]
    w2 = omega(1.0 - radial_grid(cap, n_rad))[:, None]
    n2 = circle_part + np.max(np.abs(outer - inner) / w2, axis=(1, 2))

    # N3's moduli and weight are not stored: a third (7, N) block would be
    # alive here; a stored unit-disc weight raised the 16x peak RSS when
    # built here, and built first in this function it doubled the minor
    # page faults of a default verify, +5% op time (2-CPU Xeon, numpy 2.4.6)
    z1, z2 = pair_weights(plan, "disc")
    n3 = np.max(np.abs(moduli(z1) - moduli(z2)) / omega(np.abs(z1 - z2)), axis=1)

    return n1, n2, n3


def derivative_ratio(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
                     plan: SamplePlan, cap: float | None = None
                     ) -> tuple[NormEstimate, NormEstimate, NormEstimate]:
    """Sampled sups of ||g(x)|| (1 - |x|) / omega(1 - |x|) on the slice disc,
    from one evaluation of the derivative, as (full, plus, minus): g is f'
    itself, or one of the sandwich combinations f' ± i f' i."""
    xs = disc_points(plan, cap)
    comps = split(cullen_derivative(f), i).at(xs)
    gap = 1.0 - np.abs(xs)
    w = omega(gap)
    return tuple(_pair_estimate(vals * gap / w, xs, xs, i) for vals in
                 (split_modulus(comps), 2.0 * np.abs(comps[1]), 2.0 * np.abs(comps[0])))


@dataclass(frozen=True)
class GrowthCheck:
    """Bounded-growth report at n slice points: sandwich left sides against
    twice the local sup, and the quadratic form against its majorant, as
    (n,) arrays."""

    lhs_plus: np.ndarray
    lhs_minus: np.ndarray
    local_sup: np.ndarray
    lhs_quadratic: np.ndarray
    rhs_quadratic: np.ndarray

    @property
    def sandwich_slack(self):
        return 2.0 * self.local_sup - np.maximum(self.lhs_plus, self.lhs_minus)

    @property
    def quadratic_slack(self):
        return self.rhs_quadratic - self.lhs_quadratic


def bounded_growth_check(f: SliceSeries, x: np.ndarray, i: ImaginaryUnit,
                         plan: SamplePlan) -> GrowthCheck:
    """Evaluate the bounded-growth inequalities of f at each row of an
    (n, 4) array of slice points; a point off the slice plane of i, outside
    the open disc, or with a non-finite component raises ValueError.

    The local sup runs over the disc around x of radius 1 - |x| inside the
    slice plane; by subharmonicity of the component moduli it is sampled on
    the bounding circle only, whole circles at a time in blocks of about
    _BLOCK circle points, so the work rows stay in cache.
    """
    q = np.asarray(x, dtype=float)
    # an infinite or huge component gives NaN or inf here (inf * 0, inf -
    # inf, an overflowed distance), which the guards below refuse; silenced,
    # so the caller sees one ValueError and no warning
    with np.errstate(invalid="ignore", over="ignore"):
        y = q[:, 1] * i.v1 + q[:, 2] * i.v2 + q[:, 3] * i.v3
        off = np.linalg.norm(q[:, 1:] - y[:, None] * np.array(i.components()), axis=1)
    # written so that NaN fails the comparisons
    if not np.all(off <= 1e-9):
        raise ValueError("x must lie on the slice plane of i")
    z = np.empty(len(q), dtype=complex)
    z.real, z.imag = q[:, 0], y
    # hypot, as Python's abs(complex); numpy's complex abs may differ in the last bit
    r = np.hypot(z.real, z.imag)
    if not np.all(r < 1.0):
        raise ValueError("x must lie in the open disc")
    s = split(f, i)

    gap = 1.0 - r
    e = np.exp(1j * _golden_angles(plan.n_points))
    # row maxima over whole circles are exact, so blocking keeps every bit
    rows = max(1, _BLOCK // plan.n_points)
    circle = np.empty((min(len(z), rows), plan.n_points), dtype=complex)
    evals, moduli = np.empty_like(circle), np.empty((2, *circle.shape))
    m1, m2, local_sup = np.empty((3, len(z)))
    for start in range(0, len(z), rows):
        b = slice(start, start + rows)
        c = circle[:len(z[b])]
        # gap * e, the operand order of the full-array expression (see the
        # FMA bit traps at eval_complex)
        np.multiply(gap[b, None], e, out=c)
        c += z[b, None]
        a1, a2 = moduli[:, :len(c)]
        for row, a in zip(s.C, (a1, a2)):
            np.abs(eval_complex(row, c, out=evals[:len(c)]), out=a)
        a1.max(axis=1, out=m1[b])
        a2.max(axis=1, out=m2[b])
        np.hypot(a1, a2, out=a1).max(axis=1, out=local_sup[b])

    values, slopes = s.at(z), s.derivative().at(z)
    f1, f2 = np.hypot(values.real, values.imag)
    d1, d2 = np.hypot(slopes.real, slopes.imag)

    lhs_minus = gap * d1 + 2.0 * f1
    lhs_plus = gap * d2 + 2.0 * f2
    lhs_quad = 0.25 * gap * gap * (d1 * d1 + d2 * d2) + f1 * f1 + f2 * f2
    rhs_quad = (r - 1.0) * (d1 * f1 + d2 * f2) + m1 * m1 + m2 * m2
    return GrowthCheck(lhs_plus, lhs_minus, local_sup, lhs_quad, rhs_quad)


@dataclass(frozen=True)
class SchwarzPickReport:
    """Empirical constants of the conjugated two-point criterion."""

    hypothesis_constant: float
    derivative_constant: float
    sup_modulus: float
    contract_ok: bool
    n_used: int
    n_skipped: int


INTERPRETATIONS = ("series", "pointwise")


def _squared_norms(a: np.ndarray) -> np.ndarray:
    # libm pow, as the scalar Quaternion norm and inverse square: x*x
    # differs from Python's x**2 in the last bit for about 1 value in 1200
    return np.sum(np.float_power(a, 2.0), axis=-1)


def _conjugated(c: np.ndarray, q: np.ndarray) -> np.ndarray:
    """c^-1 q c row by row, with c^-1 as Quaternion.inverse computes it."""
    inverse = conj_array(c) / _squared_norms(c)[..., None]
    return hmul_array(hmul_array(inverse, q), c)


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
    so x~ is one point for both readings, and they differ only in which
    points get skipped as singular. The modulus of a real-coefficient
    series is the same at every point of a sphere, so 1 - f^s vanishes at
    f'(x)^-1 x f'(x) exactly where it vanishes at the slice coordinate z
    of x.

    Points with ||f'(x)|| <= 1e-6, ||f(x)|| <= 1e-9, or a vanishing
    auxiliary are skipped and counted. The contract holds when the
    derivative sup is at most 1.25 times the hypothesis sup (plus 1e-12).
    """
    if interpretation not in INTERPRETATIONS:
        raise ValueError(f"interpretation must be in {INTERPRETATIONS}")
    xs = disc_points(plan)
    s = split(f, i)
    fvals = s.values(xs)
    fpvals = s.derivative().values(xs)
    M = float(np.max(norm_array(fvals)))

    value_sq = _squared_norms(fvals)
    singular = (np.sqrt(_squared_norms(fpvals)) <= 1e-6) | (np.sqrt(value_sq) <= 1e-9)
    if interpretation == "series":
        aux = (SliceSeries([1.0]) - symmetrization(f)).array[:, 0]
        singular |= np.float_power(np.abs(eval_complex(aux, xs)), 2.0) <= 1e-9
    else:
        singular |= np.abs(1.0 - np.float_power(np.sqrt(value_sq), 2.0)) <= 1e-9
    keep = ~singular
    fx = fvals[keep]
    x_t = _conjugated(conj_array(fx),
                      _conjugated(fpvals[keep], slice_points_array(i, xs[keep])))
    r = np.hypot(xs.real, xs.imag)[keep]
    gap = 1.0 - r
    w = omega(gap)
    defect = -hmul_array(conj_array(fx), evaluate_batch(f, x_t))
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
    )
