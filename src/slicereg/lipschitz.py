"""Sampled modulus-of-continuity norms and derivative-growth functionals.

Every estimator draws its samples deterministically from a SamplePlan.
Random strata use numpy Generator children seeded from (seed, stratum tag);
deterministic strata use van der Corput / golden-angle sequences. All
streams are prefix-stable: enlarging n_pairs or n_points extends the sample
set, so the pair and point sups (slice_norm, component_estimates,
global_norm, boundary_norm, derivative_ratio and N3 of seminorms_N) can
only grow under refinement, and identical plans give identical results bit
for bit. N1 and N2 of seminorms_N are the exception: their radii come from
np.geomspace, whose points are not nested as n_points grows, so a refined
plan can read a smaller N1 or N2.

Each sampled sup is a NormEstimate from one builder, _pair_estimate: its
value, the number of pairs, and its witness, the (2, 4) float array of the
two quaternions of the pair that attains it.

Each plan carries its own store: a stream or a shared constant is built
once per plan and argument values and read from the store afterwards,
read-only. The store lives and dies with the plan, so a run that holds one
plan builds each stream once, and nothing is kept between runs. One
lifetime rule holds inside it: a key that holds a series leaves with that
series (plan.drop(f)), any other key lives for the plan. A run drops each
member after the member's last suite, so at most one member's values are
alive. The complex pair streams are named: "slice" (the slice disc),
"circle" (the unit circle, stored as points) and "disc" (the closed unit
disc). pair_weights(plan, stream, *omegas) reads a stream's pairs and,
stored once per weight, omega of their distances. pair_samples(f, i, plan,
stream, *omegas) adds a series' own values, stored once per stream, series
and unit from one evaluation at either end of the pairs: one _pair_moduli
block of the rows its readers read, in the order: the increment modulus
hypot(|dF|, |dG|), |F| and |G| at both ends, then |dF| and |dG|. A verify
run stores all seven rows for the slice pairs at unit i, the increment
modulus alone at a second unit (slice_norm reads nothing else), and five
rows for the circle pairs, where nothing reads |dF|, |dG|. Poisson means
need no array of size points x nodes: circle_spectrum stores, with a
series' values, the spectra of its boundary moduli (|F|, |G|) and of ||f||
at the `nodes` angles (3 rows of about nodes complex numbers) as one
entry, from one evaluation and two FFT calls, which N1 and the suites'
defect sup and cone means read; N1 takes the powers of its ray grid,
which grows with n_points, per call.

Each pair stream is built in one buffer of its final dtype: its strata
are drawn and written _BLOCK pairs at a time, the admitted pairs are moved
forward in place and the buffer is shrunk to them (_admit), so a build
holds nothing beside the stream it keeps but the columns it rejects, until
the shrink, and a block. The circle angles are the real parts of the
buffer that the circle points are then written over. Over the pair
streams, the blocks are written, and the sups and maxima taken, _BLOCK
pairs at a time (blocked_max, blocked_argmax), so no transient of an
estimator grows with the number of pairs, and every bit, argmax included,
is that of the full-array expression.

Points of a slice plane are handled in their complex coordinate; values of
a series along the plane come from the two coefficient rows of split(f, i),
so each estimator is a handful of vectorized complex Horner evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .majorant import Majorant
from .poisson import BoundarySpectrum, _angles, boundary_spectrum, defect_sup, resolved_cap
from .quaternion import ImaginaryUnit, conj_array, hmul_array, norm_array, slice_points_array
from .series import (
    _BLOCK,
    SliceSeries,
    cullen_derivative,
    eval_complex,
    evaluate_batch,
    split,
    split_modulus,
    symmetrization,
    zero_leg_hypot,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# The largest max_radius whose points stay off the sphere in floating
# point. A point cap * e^{it} of the cap circle passes three roundings: the
# parts of e^{it}, its product by cap, and the modulus (hypot), each within
# an ulp, so 2^-52 relative at most, and |cap * e^{it}| computes to at most
# cap * (1 + 2^-52)^3 < 1 - 2^-52 for cap <= 1 - 2^-50. At 1 - 2^-53 and
# 1 - 2^-52 some points of the cap circle compute to |x| = 1.
MAX_RADIUS = 1.0 - 2.0 ** -50


class DegeneratePlan(ValueError):
    """The plan produced no admissible samples."""


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampling budget for the estimators.

    min_separation is the smallest pair distance kept (guards float
    cancellation in difference quotients); max_radius bounds samples away
    from the sphere, and may not exceed MAX_RADIUS, past which a sample can
    round onto it.
    """

    n_pairs: int = 4096
    n_points: int = 512
    min_separation: float = 1e-4
    max_radius: float = 0.995
    seed: int = 12345

    def __post_init__(self):
        if self.n_pairs < 4 or self.n_points < 4:
            raise DegeneratePlan("plan needs at least 4 pairs and 4 points")
        if not 0.0 < self.max_radius <= MAX_RADIUS:
            raise DegeneratePlan(f"max_radius must lie in (0, 1 - 2**-50], got {self.max_radius!r}")
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

    def forget(self, key):
        """Remove the value stored under key, if any."""
        self.__dict__.get("_store", {}).pop(key, None)

    def drop(self, obj):
        """Remove every stored value whose key holds obj (by identity)."""
        store = self.__dict__.get("_store", {})
        for key in [k for k in store if isinstance(k, tuple) and any(x is obj for x in k)]:
            del store[key]


@dataclass(frozen=True, eq=False)
class NormEstimate:
    """Sampled supremum: always a lower bound on the true norm. The witness
    argmax_pair is the (2, 4) float array of the two quaternions of the
    pair that attains it. eq=False: == on an array field would raise."""

    value: float
    argmax_pair: np.ndarray
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


def _write_strata(writers, sizes):
    """Fill a pair buffer stratum by stratum, a block at a time: the
    strata take sizes[0], sizes[1], ... columns in order, and writers[s](j,
    cols) writes a block of stratum s, j the range of its indices in the
    stratum and cols the slice of its buffer columns. Each call's
    transients die with it, so none outlives its block. A writer takes
    the terms j of a prefix-stable sequence as _vdc(len(j), j.start) or
    _golden_angles(len(j), offset + j.start): each term is exact in its
    index, so the bits are those of the whole sequence."""
    start = 0
    for write, n in zip(writers, sizes):
        for lo in range(0, n, _BLOCK):
            j = range(lo, min(lo + _BLOCK, n))
            write(j, slice(start + j.start, start + j.stop))
        start += n


def _admit(buf: np.ndarray, admitted, what: str):
    """Keep the admitted pairs of a pair buffer, in place. buf is
    C-contiguous, owns its data and has the pairs on its last axis;
    admitted(buf[..., b]) is the boolean mask of the pairs of a block b.
    The admitted columns move forward a block at a time, in order, so that
    the flat buffer starts with buf's rows cut to the k admitted columns,
    and buf is then shrunk in place to shape[:-1] + (k,). Raises
    DegeneratePlan when no pair is admitted.

    A block is read whole before any of it is written, and no column moves
    past where it was read, so nothing unread is overwritten. Beside the
    buffer this holds one byte per pair and a block."""
    n = buf.shape[-1]
    keep = np.empty(n, dtype=bool)
    for b in _blocks(n):
        keep[b] = admitted(buf[..., b])
    k = int(np.count_nonzero(keep))
    if k == 0:
        raise DegeneratePlan(f"no admissible {what} pairs")
    flat, end = buf.reshape(-1), 0
    for row in buf.reshape(-1, n):
        for b in _blocks(n):
            kept = row[b][keep[b]]
            flat[end:end + kept.size] = kept
            end += kept.size
    # the caller, the buffer's only holder, keeps no view of it, and the
    # views taken here are not read again, so none is left to dangle when
    # the shrink moves the data; the reference count check is not used, as
    # a profile or trace hook (cProfile, coverage, pdb) holds references of
    # its own and makes it refuse
    buf.resize(buf.shape[:-1] + (k,), refcheck=False)


def disc_pair_coords(plan: SamplePlan, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair stream inside the closed disc of the given radius, built once
    per plan and cap.

    Four strata: near-diameter chords, independent uniforms, near-diagonal
    offsets down to min_separation, and boundary-to-inner radial pairs.
    """
    return plan.memo(("disc_pairs", cap), lambda: _disc_pairs(plan, cap))


def _disc_pairs(plan: SamplePlan, cap: float) -> tuple[np.ndarray, np.ndarray]:
    eps = plan.min_separation
    z = np.empty((2, plan.n_pairs), dtype=complex)
    _write_disc_strata(plan, cap, z)

    def admitted(p):
        return (np.abs(p[0]) <= cap) & (np.abs(p[1]) <= cap) & (np.abs(p[0] - p[1]) >= eps)

    _admit(z, admitted, "slice")
    return z[0], z[1]


def _write_disc_strata(plan: SamplePlan, cap: float, z: np.ndarray):
    """Write the disc pair strata into the columns of the rows z1, z2 of z.
    Each child generator draws its stratum in order, a block at a time,
    which gives the numbers of one whole draw: every stratum stays
    prefix-stable, and no draw is longer than a block."""
    eps = plan.min_separation
    z1, z2 = z

    def diam(j, cols):
        e = np.exp(1j * _golden_angles(len(j), j.start))
        np.multiply(cap, e, out=z1[cols])
        np.multiply(-(cap * (1.0 - _vdc(len(j), j.start))), e, out=z2[cols])

    def unif(j, cols, rng=plan.child_rng(11)):
        u = rng.uniform(size=(len(j), 4))
        np.multiply(cap * np.sqrt(u[:, 0]), np.exp(2j * np.pi * u[:, 1]), out=z1[cols])
        np.multiply(cap * np.sqrt(u[:, 2]), np.exp(2j * np.pi * u[:, 3]), out=z2[cols])

    def diag(j, cols, rng=plan.child_rng(12)):
        u = rng.uniform(size=(len(j), 3))
        base = np.multiply(cap * np.sqrt(u[:, 0]), np.exp(2j * np.pi * u[:, 1]), out=z1[cols])
        delta = np.exp(np.log(eps) * (1.0 - _vdc(len(j), j.start)))  # log-spaced [eps, 1)
        step = delta * np.exp(2j * np.pi * u[:, 2])
        z2_c = np.add(base, step, out=z2[cols])
        np.subtract(base, step, out=z2_c, where=np.abs(z2_c) > cap)

    def rad(j, cols):
        e = np.exp(1j * _golden_angles(len(j), 7 + j.start))
        np.multiply(cap, e, out=z1[cols])
        np.multiply((cap - eps) * _vdc(len(j), j.start), e, out=z2[cols])

    _write_strata((diam, unif, diag, rad), _quarters(plan.n_pairs))


def slice_pair_coords(plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    return disc_pair_coords(plan, plan.max_radius)


def ball_pair_coords(plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    """Pair stream in the four-dimensional ball, strata as in the disc,
    built once per plan: (q1, q2), each (N, 4), the transposed views of the
    C-contiguous (4, N) component rows of one (2, 4, N) buffer."""
    return plan.memo("ball_pairs", lambda: _ball_pairs(plan))


def _ball_pairs(plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    eps = plan.min_separation
    rho = plan.max_radius
    # component-major: pair p is column p of the (4, n_pairs) rows q1, q2;
    # norm_array of the transposed rows sums the squares in component
    # order, as np.linalg.norm of the pairs
    q = np.empty((2, 4, plan.n_pairs))
    _write_ball_strata(plan, q)

    def admitted(p):
        q1, q2 = p[0].T, p[1].T
        return (norm_array(q1) <= rho) & (norm_array(q2) <= rho) & (norm_array(q1 - q2) >= eps)

    _admit(q, admitted, "ball")
    return q[0].T, q[1].T


def _write_ball_strata(plan: SamplePlan, q: np.ndarray):
    """Write the ball pair strata into the columns of the (4, n_pairs)
    rows q1, q2 of q, drawn and written as the disc strata are."""
    eps = plan.min_separation
    rho = plan.max_radius
    q1, q2 = q

    def unit_rows(v):
        """(n, 4) draws as (4, n) rows, each column scaled to unit norm."""
        return v.T / norm_array(v)

    def diam(j, cols, rng=plan.child_rng(21)):
        d = unit_rows(rng.normal(size=(len(j), 4)))
        np.multiply(rho, d, out=q1[:, cols])
        np.multiply(-(rho * (1.0 - _vdc(len(j), j.start))), d, out=q2[:, cols])

    def unif(j, cols, rng=plan.child_rng(22), rng_u=plan.child_rng(25)):
        g, u = rng.normal(size=(len(j), 8)), rng_u.uniform(size=(len(j), 2))
        np.multiply(rho * u[:, 0] ** 0.25, unit_rows(g[:, :4]), out=q1[:, cols])
        np.multiply(rho * u[:, 1] ** 0.25, unit_rows(g[:, 4:]), out=q2[:, cols])

    def diag(j, cols, rng=plan.child_rng(23), rng_u=plan.child_rng(26)):
        g, u = rng.normal(size=(len(j), 8)), rng_u.uniform(size=len(j))
        base = np.multiply(rho * u ** 0.25, unit_rows(g[:, :4]), out=q1[:, cols])
        step = np.exp(np.log(eps) * (1.0 - _vdc(len(j), j.start))) * unit_rows(g[:, 4:])
        q2_c = np.add(base, step, out=q2[:, cols])
        np.subtract(base, step, out=q2_c, where=norm_array(q2_c.T) > rho)

    def rad(j, cols, rng=plan.child_rng(24)):
        d = unit_rows(rng.normal(size=(len(j), 4)))
        np.multiply(rho, d, out=q1[:, cols])
        np.multiply((rho - eps) * _vdc(len(j), j.start), d, out=q2[:, cols])

    _write_strata((diam, unif, diag, rad), _quarters(plan.n_pairs))


def circle_pair_angles(plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    """Angle pairs on the unit circle with chords >= min_separation, as the
    real parts of the two rows of one (2, k) complex buffer, imaginary
    parts zero, which the circle pair stream overwrites with the points
    they give. Not stored: the stream keeps only the points."""
    eps = plan.min_separation
    t = np.zeros((2, plan.n_pairs), dtype=complex)
    _write_circle_angles(plan, t.real)
    _admit(t, lambda p: 2.0 * np.abs(np.sin(0.5 * (p[0].real - p[1].real))) >= eps, "circle")
    return t[0].real, t[1].real


def _write_circle_angles(plan: SamplePlan, t: np.ndarray):
    """Write the circle angle strata into the rows t1, t2 of t, as the disc
    strata are written: uniform pairs, then golden-angle starts with
    angular gaps log-spaced from about min_separation up to pi."""
    eps = plan.min_separation
    t1, t2 = t

    def uniform(j, cols, rng=plan.child_rng(31)):
        t[:, cols] = rng.uniform(0.0, 2.0 * np.pi, size=(len(j), 2)).T

    def gaps(j, cols):
        t1[cols] = _golden_angles(len(j), 3 + j.start)
        gap = np.pi * np.exp(np.log(eps / np.pi) * (1.0 - _vdc(len(j), j.start)))
        np.add(t1[cols], gap, out=t2[cols])

    half = plan.n_pairs // 2
    _write_strata((uniform, gaps), (half, plan.n_pairs - half))


def _circle_points(plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    """The points e^{it1}, e^{it2} of circle_pair_angles, written over the
    angles, a block at a time, in the complex buffer that holds them."""
    t = circle_pair_angles(plan)
    e = t[0].base
    for b in _blocks(e.shape[1]):
        for angles, points in zip(t, e):
            np.exp(1j * angles[b], out=points[b])
    return e[0], e[1]


# the complex pair streams by name, each built once per plan; the entries
# reach disc_pair_coords and circle_pair_angles through the module globals,
# so a wrapper set on this module sees every build
_PAIR_STREAMS = {
    "slice": lambda plan: slice_pair_coords(plan),
    "circle": lambda plan: plan.memo("circle_points", lambda: _circle_points(plan)),
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
    """Point stream of n_points complex points in the closed disc of radius
    cap (max_radius when None): an equidistributed bulk, which starts at the
    origin, a geometric edge layer, and the cap circle itself; built once
    per plan and cap."""
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
    return np.concatenate([bulk, edge, circ])


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


def _blocks(n: int):
    """slice(start, start + _BLOCK) over range(n); one, empty, when n is 0."""
    return (slice(start, start + _BLOCK) for start in range(0, max(n, 1), _BLOCK))


def blocked_max(values, n: int) -> np.ndarray:
    """np.max(v, axis=-1) of the array v whose last axis is the
    concatenation of values(b) over the blocks b of _blocks(n), without
    building v: a maximum is exact, so the bits are those of the full
    array, and a NaN propagates, as it does in np.max."""
    return np.max([np.max(values(b), axis=-1) for b in _blocks(n)], axis=0)


def blocked_argmax(values, n: int) -> tuple[int, float]:
    """(k, v[k]) for k = np.argmax(v) of the concatenation v of values(b)
    over the blocks b of _blocks(n), without building v: as in np.argmax,
    the first maximum wins and the first NaN wins over any number."""
    k = v = None
    for b in _blocks(n):
        r = values(b)
        j = int(np.argmax(r))
        # strictly greater, so an earlier equal maximum stays
        if v is None or r[j] > v or (math.isnan(r[j]) and not math.isnan(v)):
            k, v = b.start + j, r[j]
    return k, float(v)


def _pair_estimate(ratios, n: int, pair) -> NormEstimate:
    """The sampled sup of the n pair ratios, ratios(b) giving the pairs
    b's, taken block by block (blocked_argmax), with pair(k), the (2, 4)
    rows of pair k, as its witness: the one builder of a NormEstimate."""
    k, value = blocked_argmax(ratios, n)
    return NormEstimate(value=value, argmax_pair=pair(k), samples_used=n)


def _slice_pair(i: ImaginaryUnit, z1: np.ndarray, z2: np.ndarray):
    """pair(k) for _pair_estimate over complex pairs z1, z2 of the slice of
    i, embedded as slice_point embeds them, bit for bit."""
    return lambda k: slice_points_array(i, np.array([z1[k], z2[k]]))


def _pair_moduli(f: SliceSeries, i: ImaginaryUnit, z1: np.ndarray,
                 z2: np.ndarray, rows: int) -> np.ndarray:
    """The first rows (1, 5 or 7) of f's moduli block over the pairs z1,
    z2, from one evaluation of the split components F, G at each end, in
    the order: the increment modulus hypot(|dF|, |dG|) (split_modulus of
    the increment), |F| and |G| at z1, |F| and |G| at z2, then |dF| and
    |dG|, so each end's pair of rows reads as split_modulus reads it.
    Evaluated and written _BLOCK pairs at a time: no transient is longer
    than a block."""
    s = split(f, i)
    out = np.empty((rows, z1.size))
    inc = np.empty((2, min(z1.size, _BLOCK)))
    for b in _blocks(z1.size):
        v1, v2 = s.at(z1[b]), s.at(z2[b])
        if rows > 1:
            np.abs(v1, out=out[1:3, b])
            np.abs(v2, out=out[3:5, b])
        v1 -= v2
        d = out[5:, b] if rows > 5 else inc[:, :v1.shape[1]]
        np.abs(v1, out=d)
        zero_leg_hypot(d[0], d[1], out=out[0, b])
    return out


def pair_samples(f: SliceSeries, i: ImaginaryUnit, plan: SamplePlan, stream: str,
                 *omegas: Majorant, rows: int = 7) -> tuple[np.ndarray, ...]:
    """z1, z2, then the first rows of f's _pair_moduli block over the named
    stream's pairs, then the weights of pair_weights. The block is built
    once per stream, series and unit, with the rows its first reader asks
    for, and kept until plan.drop(f); a reader that asks for more rows
    than are stored builds it again with them. A full verify run reads
    the slice block for unit i first through component_estimates, so it
    evaluates each member once per stream and unit."""
    for omega in omegas:
        _require_positive(omega, plan.min_separation)
    z1, z2, *ws = pair_weights(plan, stream, *omegas)
    key = (stream, "moduli", f, i)

    def build():
        return _pair_moduli(f, i, z1, z2, rows)

    if len(plan.memo(key, build)) < rows:
        plan.forget(key)
    return (z1, z2, plan.memo(key, build), *ws)


def circle_spectrum(f: SliceSeries, i: ImaginaryUnit, plan: SamplePlan,
                    nodes: int) -> tuple[BoundarySpectrum, BoundarySpectrum]:
    """The BoundarySpectrum of f's component moduli (|F|, |G|) on the
    circle of the plane of i at the `nodes` angles, and that of ||f|| =
    hypot(|F|, |G|) there, from one evaluation of F and G and one FFT call
    each; stored as one entry per series, unit and node count, kept until
    plan.drop(f)."""
    def build():
        a = np.abs(split(f, i).at(np.exp(1j * _angles(nodes))))
        return boundary_spectrum(a, nodes), boundary_spectrum(zero_leg_hypot(a[0], a[1]), nodes)

    return plan.memo(("boundary", f, i, nodes), build)


def slice_norm(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
               plan: SamplePlan) -> NormEstimate:
    """Sampled sup of ||f(x) - f(y)|| / omega(||x - y||) over pairs of the
    slice disc, from the increment modulus alone."""
    z1, z2, mods, w = pair_samples(f, i, plan, "slice", omega, rows=1)
    return _pair_estimate(lambda b: mods[0, b] / w[b], z1.size, _slice_pair(i, z1, z2))


def component_estimates(f: SliceSeries, omega1: Majorant, omega2: Majorant,
                        i: ImaginaryUnit, plan: SamplePlan
                        ) -> tuple[NormEstimate, NormEstimate, NormEstimate]:
    """Per-component sups and the joint two-majorant estimate, on one
    shared pair stream: (C1, C2, joint) with

        joint = sup sqrt( (|dF|/omega1)^2 + (|dG|/omega2)^2 ).
    """
    z1, z2, mods, w1, w2 = pair_samples(f, i, plan, "slice", omega1, omega2)

    def r1(b):
        return mods[5, b] / w1[b]

    def r2(b):
        return mods[6, b] / w2[b]

    return tuple(_pair_estimate(r, z1.size, _slice_pair(i, z1, z2))
                 for r in (r1, r2, lambda b: zero_leg_hypot(r1(b), r2(b))))


def global_norm(f: SliceSeries, omega: Majorant, plan: SamplePlan) -> NormEstimate:
    """Sampled sup of the difference quotient over pairs of the full ball."""
    q1, q2 = ball_pair_coords(plan)
    _require_positive(omega, plan.min_separation)

    def ratios(b):
        diff = evaluate_batch(f, q1[b])
        diff -= evaluate_batch(f, q2[b])
        # the distances are recomputed, not stored beside the stream: storing
        # them would keep one more array of the stream's length for the run
        return norm_array(diff) / omega(norm_array(q1[b] - q2[b]))

    return _pair_estimate(ratios, len(q1), lambda k: np.stack((q1[k], q2[k])))


def boundary_norm(f: SliceSeries, omega: Majorant, i: ImaginaryUnit,
                  plan: SamplePlan) -> tuple[NormEstimate, NormEstimate]:
    """Difference-quotient sups over pairs of the slice circle, from f's
    stored circle moduli: (function, modulus) compare f itself and ||f||."""
    z1, z2, mods, w = pair_samples(f, i, plan, "circle", omega, rows=5)

    def modulus(b):
        return np.abs(split_modulus(mods[1:3, b]) - split_modulus(mods[3:5, b])) / w[b]

    pair = _slice_pair(i, z1, z2)
    return (_pair_estimate(lambda b: mods[0, b] / w[b], z1.size, pair),
            _pair_estimate(modulus, z1.size, pair))


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
    # refused before the Poisson sup, which runs ahead of pair_samples
    _require_positive(omega, plan.min_separation)
    s = split(f, i)

    def moduli(z):
        return np.abs(s.at(z))

    # N1's Poisson sup first: its transients die before the circle block is
    # built. The grid grows with n_points, so its powers are taken per call
    n_rad = max(16, plan.n_points // 16)
    xs = ray_grid(resolved_cap(plan.max_radius, nodes), n_rad, 8, 2)
    defect = defect_sup(s.C, omega, xs, nodes, circle_spectrum(f, i, plan, nodes)[0])

    e1, _, mods, w = pair_samples(f, i, plan, "circle", omega, rows=5)
    circle_part = blocked_max(lambda b: np.abs(mods[1:3, b] - mods[3:5, b]) / w[b], e1.size)
    n1 = circle_part + defect

    cap = 1.0 - plan.min_separation
    inner = moduli(ray_grid(cap, n_rad, 32, 9).reshape(n_rad, 32))
    outer = moduli(np.exp(1j * _golden_angles(32, offset=9)))[:, None, :]
    w2 = omega(1.0 - radial_grid(cap, n_rad))[:, None]
    n2 = circle_part + np.max(np.abs(outer - inner) / w2, axis=(1, 2))

    # N3's moduli and weight are not stored but taken block by block: a
    # stored unit-disc weight would keep one more array of the stream's
    # length for the run
    z1, z2 = pair_weights(plan, "disc")

    def n3_ratios(b):
        return np.abs(moduli(z1[b]) - moduli(z2[b])) / omega(np.abs(z1[b] - z2[b]))

    n3 = blocked_max(n3_ratios, z1.size)

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
    pair = _slice_pair(i, xs, xs)
    return tuple(_pair_estimate(lambda b, v=vals: v[b] * gap[b] / w[b], xs.size, pair)
                 for vals in (split_modulus(comps), 2.0 * np.abs(comps[1]),
                              2.0 * np.abs(comps[0])))


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


def bounded_growth_check(f: SliceSeries, z: np.ndarray, i: ImaginaryUnit,
                         plan: SamplePlan) -> GrowthCheck:
    """Evaluate the bounded-growth inequalities of f at the points x + I*y
    of the slice plane of I = i, given as a 1-D array of their complex
    coordinates z = x + iy. Any other shape, such as an (n, 4) array of
    quaternion components, raises ValueError, and so does a point outside
    the open disc or with a NaN or infinite part.

    The local sup runs over the disc around z of radius 1 - |z| inside the
    slice plane; by subharmonicity of the component moduli it is sampled on
    the bounding circle only, whole circles at a time in blocks of about
    _BLOCK circle points, so the work rows stay in cache.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise ValueError(f"z must be a 1-D array of complex coordinates, got shape {z.shape}")
    # hypot, as Python's abs(complex); numpy's complex abs may differ in the
    # last bit. Written so that NaN fails the comparison
    r = np.hypot(z.real, z.imag)
    if not np.all(r < 1.0):
        raise ValueError("z must lie in the open unit disc")
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
        zero_leg_hypot(a1, a2, out=a1).max(axis=1, out=local_sup[b])

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
    contract_ok: bool | None
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
    derivative sup is at most 1.25 times the hypothesis sup (plus 1e-12);
    contract_ok is None when every point is skipped, as for a constant.
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

    return SchwarzPickReport(
        hypothesis_constant=float(hyp),
        derivative_constant=float(der),
        sup_modulus=M,
        # no reading, not a pass, when every point is skipped
        contract_ok=bool(der <= hyp * 1.25 + 1e-12) if used else None,
        n_used=used,
        n_skipped=skipped,
    )
