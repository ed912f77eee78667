"""Power series q -> sum_n q^n a_n with right quaternion coefficients.

These are the polynomial (truncated-series) models of slice regular
functions on the unit ball: evaluation is by left-power Horner, the
noncommutative *-product is the Cauchy convolution of coefficients, and
split(f, i) gives f = F + G*j on the plane of i as one SplitSeries, whose
two rows of complex coefficients (F, G) feed every slice sample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .quaternion import (
    _SIGNS,
    ImaginaryUnit,
    Quaternion,
    conj_array,
    hamilton_mul,
    hamilton_components,
    hmul_array,
    norm,
    norm_array,
    orthogonal_unit,
    quat_array,
)

BASE_FLOOR = 1e-9  # pointwise formulas are skipped under this norm


class ZeroBase(ValueError):
    """Pointwise *-product requested at a point where the left factor
    vanishes (the conjugated argument f(q)^-1 q f(q) is undefined)."""


class AsymmetryDetected(ArithmeticError):
    """Symmetrization produced different results in the two orders, or
    complex residue above tolerance; indicates a corrupted series."""


class NotInvertibleAtOrigin(ValueError):
    """*-inverse requested for a series whose symmetrization vanishes at 0."""


@dataclass(frozen=True, eq=False)
class SliceSeries:
    """Coefficients a_0..a_n, ascending degree, as a read-only (n+1, 4)
    float array; built from an (n, 4) array or from quaternions, reals and
    4-sequences."""

    array: np.ndarray

    def __post_init__(self):
        coeffs = self.array
        if not (isinstance(coeffs, np.ndarray) and coeffs.ndim == 2):
            coeffs = quat_array(coeffs)
        a = np.array(coeffs, dtype=float)
        if a.ndim != 2 or a.shape[1] != 4 or len(a) == 0:
            raise ValueError(f"a series needs an (n, 4) coefficient array, n >= 1, "
                             f"got shape {a.shape}")
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @classmethod
    def from_real(cls, values: Sequence[float]) -> "SliceSeries":
        a = np.zeros((len(values), 4))
        a[:, 0] = values
        return cls(a)

    @functools.cached_property
    def coefficients(self) -> tuple[Quaternion, ...]:
        """The coefficients as scalar quaternions."""
        return tuple(Quaternion(*row) for row in self.array.tolist())

    @property
    def degree(self) -> int:
        return len(self.array) - 1

    def truncated(self, degree: int) -> "SliceSeries":
        """Coefficients 0..degree, zero-padded when the series is shorter."""
        out = np.zeros((degree + 1, 4))
        kept = self.array[: degree + 1]
        out[: len(kept)] = kept
        return SliceSeries(out)

    def __call__(self, q: Quaternion) -> Quaternion:
        return evaluate(self, q)

    def __add__(self, other: "SliceSeries") -> "SliceSeries":
        n = max(self.degree, other.degree)
        return SliceSeries(self.truncated(n).array + other.truncated(n).array)

    def __sub__(self, other: "SliceSeries") -> "SliceSeries":
        return self + (-other)

    def __neg__(self) -> "SliceSeries":
        return SliceSeries(-self.array)

    def __mul__(self, other):
        if isinstance(other, SliceSeries):
            return star_product(self, other)
        # right factor multiplies every coefficient on the right
        return SliceSeries(hmul_array(self.array, quat_array([other])))


def evaluate(f: SliceSeries, q: Quaternion) -> Quaternion:
    """Horner evaluation of sum_n q^n a_n (powers on the left)."""
    coeffs = f.coefficients
    acc = coeffs[-1]
    for n in range(f.degree - 1, -1, -1):
        acc = hamilton_mul(q, acc) + coeffs[n]
    return acc


# points per block of evaluate_batch and eval_complex: their work rows stay in cache
_BLOCK = 8192


def evaluate_batch(f: SliceSeries, points: np.ndarray) -> np.ndarray:
    """Vectorized Horner over an array of points shaped (..., 4).

    The points are read as four component rows, block by block of _BLOCK
    points, into the signed copies _SIGNS[k, i] * p[k] of quaternion's sign
    table; the accumulator is four rows updated in place, and the result
    comes back as the (..., 4) view of its component rows. With the four
    rows of the accumulator a held as (2, 2, n), the rows in the order
    i ^ k are the views a, a[:, ::-1], a[::-1] and a[::-1, ::-1]. Negation
    is exact and rounding symmetric, so (sign * p[k]) * a[i ^ k] summed in
    the table's term order, k = 0, 1, 2, 3, has the bits of the scalar
    hamilton_mul Horner loop in evaluate.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1:] != (4,):
        raise ValueError(f"points must be shaped (..., 4), got {pts.shape}")
    rows = np.moveaxis(pts, -1, 0).reshape(4, -1)
    m = rows.shape[1]
    out = np.empty((4, m))
    c = f.array.reshape(-1, 2, 2, 1)
    width = min(m, _BLOCK)
    signed, work = np.empty((4, 4, width)), np.empty((3, 4, width))
    for start in range(0, m, _BLOCK):
        p = rows[:, start:start + _BLOCK]
        n = p.shape[1]
        sp = np.multiply(_SIGNS[:, :, None], p[:, None, :], out=signed[:, :, :n])
        sp = sp.reshape(4, 2, 2, n)
        a, b, t = (w.reshape(2, 2, n) for w in work[:, :, :n])
        a[...] = c[-1]
        for deg in range(f.degree - 1, -1, -1):
            np.multiply(sp[0], a, out=b)
            for s_k, a_k in zip(sp[1:], (a[:, ::-1], a[::-1], a[::-1, ::-1])):
                b += np.multiply(s_k, a_k, out=t)
            b += c[deg]
            a, b = b, a
        out[:, start:start + n] = a.reshape(4, n)
    return np.moveaxis(out.reshape((4, *pts.shape[:-1])), 0, -1)


def cullen_derivative(f: SliceSeries) -> SliceSeries:
    """Term-wise derivative sum_n q^(n-1) * n * a_n."""
    if f.degree == 0:
        return SliceSeries(np.zeros((1, 4)))
    return SliceSeries(f.array[1:] * np.arange(1, f.degree + 1)[:, None])


def star_product(f: SliceSeries, g: SliceSeries) -> SliceSeries:
    """Cauchy convolution c_n = sum_k a_k b_(n-k); order of factors matters."""
    return SliceSeries(np.stack(hamilton_components(
        lambda k, l: np.convolve(f.array[:, k], g.array[:, l])), axis=-1))


def star_pointwise(f: SliceSeries, g: SliceSeries, q: Quaternion) -> Quaternion:
    """(f*g)(q) = f(q) * g(f(q)^-1 q f(q)) wherever f(q) != 0."""
    fq = evaluate(f, q)
    if norm(fq) <= BASE_FLOOR:
        raise ZeroBase(f"left factor vanishes at {q!r}")
    moved = hamilton_mul(hamilton_mul(fq.inverse(), q), fq)
    return hamilton_mul(fq, evaluate(g, moved))


def regular_conjugate(f: SliceSeries) -> SliceSeries:
    """Coefficient-wise quaternion conjugation f^c."""
    return SliceSeries(conj_array(f.array))


def symmetrization(f: SliceSeries) -> SliceSeries:
    """f^s = f * f^c = f^c * f; always has real coefficients.

    Both orders are computed; a mismatch above 1e-10 (or imaginary residue
    above 1e-12) raises AsymmetryDetected.
    """
    fc = regular_conjugate(f)
    left = star_product(f, fc).array
    right = star_product(fc, f).array
    scale = max(1.0, float(norm_array(left).max()))
    diff = float(norm_array(left - right).max())
    if diff > 1e-10 * scale:
        raise AsymmetryDetected(f"orders disagree by {diff!r}")
    residue = float(norm_array(left[:, 1:]).max())
    if residue > 1e-12 * scale:
        raise AsymmetryDetected(f"imaginary residue {residue!r}")
    return SliceSeries.from_real(left[:, 0])


def _real_reciprocal(s: np.ndarray, order: int) -> np.ndarray:
    # formal reciprocal of a real power series with s[0] != 0
    r = np.zeros(order + 1)
    r[0] = 1.0 / s[0]
    for n in range(1, order + 1):
        k = min(n, len(s) - 1)
        acc = sum(s[m] * r[n - m] for m in range(1, k + 1))
        r[n] = -acc / s[0]
    return r


def star_inverse(f: SliceSeries, order: int) -> SliceSeries:
    """Formal *-inverse f^-* = (f^s)^-1 * f^c through the given degree.

    The symmetrization is a real series, so its reciprocal is the scalar
    power-series reciprocal; coefficients 0..order of the result are exact
    truncations of the infinite *-inverse.
    """
    s = symmetrization(f).array[:, 0]
    if abs(s[0]) <= BASE_FLOOR:
        raise NotInvertibleAtOrigin("symmetrization vanishes at the origin")
    recip = SliceSeries.from_real(_real_reciprocal(s, order))
    return star_product(recip, regular_conjugate(f)).truncated(order)


def star_inverse_derivative(f: SliceSeries, order: int) -> SliceSeries:
    """Derivative of the *-inverse via -(f^-*) * f' * (f^-*)."""
    inv = star_inverse(f, order)
    fp = cullen_derivative(f)
    return (-star_product(star_product(inv, fp), inv)).truncated(order)


# -- splitting over a slice plane -------------------------------------------


def slice_basis(i: ImaginaryUnit, j: ImaginaryUnit) -> np.ndarray:
    """Rows 1, i, j, i*j of R^4: orthonormal for j perpendicular to i, and
    then i*j is the cross product i x j, with no real part."""
    a1, a2, a3 = i.components()
    b1, b2, b3 = j.components()
    return np.array([(1.0, 0.0, 0.0, 0.0), (0.0, a1, a2, a3), (0.0, b1, b2, b3),
                     (0.0, a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)])


@dataclass(frozen=True, eq=False)
class SplitSeries:
    """A series on the plane of i through its splitting f = F + G*j, F and
    G complex: C stacks the ascending coefficients of F and of G as the
    rows of one (2, n+1) complex array, and every slice sample is taken
    from those two rows. split builds it."""

    C: np.ndarray
    i: ImaginaryUnit
    j: ImaginaryUnit

    def derivative(self) -> "SplitSeries":
        return SplitSeries(npoly.polyder(self.C, axis=1), self.i, self.j)

    def at(self, z) -> np.ndarray:
        """Component values (F(z), G(z)) stacked along a new first axis,
        each row written in place by its own eval_complex call."""
        z = np.asarray(z, dtype=complex)
        out = np.empty((len(self.C), *z.shape), dtype=complex)
        for k, c in enumerate(self.C):
            eval_complex(c, z, out=out[k, ...])
        return out

    def modulus(self, z) -> np.ndarray:
        """||f|| at complex coordinates z."""
        return split_modulus(self.at(z))

    def values(self, z) -> np.ndarray:
        """Quaternion values F(z) + G(z)*j at complex coordinates z, as (..., 4)."""
        parts = np.stack(self.at(z), axis=-1).view(float)  # (F.re, F.im, G.re, G.im)
        return parts @ slice_basis(self.i, self.j)


def split(f: SliceSeries, i: ImaginaryUnit) -> SplitSeries:
    """Split coefficients a_n = alpha_n + beta_n * j over the plane of i.

    j is the deterministic perpendicular unit; alpha and beta are complex
    relative to the basis (1, i) and (j, i*j), read off the coordinates of
    a_n in slice_basis(i, j): each coordinate row (c0, c1, c2, c3) viewed
    as complex is (alpha_n, beta_n) = (c0 + c1 i, c2 + c3 i).
    """
    j = orthogonal_unit(i)
    coords = f.array @ slice_basis(i, j).T
    return SplitSeries(coords.view(complex).T.copy(), i, j)


def eval_complex(coeffs: np.ndarray, z, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate an ascending complex coefficient array at complex points
    by Horner, with the bits of numpy.polynomial.polynomial.polyval at
    finite z (polyval starts from c[-1] + z*0, so a -0.0 part of the
    leading coefficient may come out as +0.0 there and stays -0.0 here).
    A row of one coefficient is filled with it, and a row whose
    coefficients are all zero with +0.0, without a Horner pass: every
    Horner step of such a row gives a zero, so at finite z the fill may
    differ from polyval only in the sign of a zero.

    The Horner runs over _BLOCK points at a time in two preallocated work
    rows, which stay in cache; the last degree step writes into out (a
    C-contiguous complex array shaped like z, new when None), which is
    returned."""
    c = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if out is None:
        out = np.empty(z.shape, dtype=complex)
    elif out.shape != z.shape or not out.flags.c_contiguous:
        # a strided out would be flattened into a copy, and the values lost
        raise ValueError(f"out must be C-contiguous and shaped {z.shape}")
    if len(c) == 1:
        out[...] = c[0]
    elif not c.any():
        out[...] = 0.0
    else:
        _horner(c, z.reshape(-1), out.reshape(-1))
    return out


def _horner(c: np.ndarray, zf: np.ndarray, res: np.ndarray):
    """Write the Horner values of the coefficients c (two or more) at the
    flat points zf into res, _BLOCK points at a time."""
    work = np.empty((2, min(zf.size, _BLOCK)), dtype=complex)
    # numpy's SIMD complex multiply uses FMA, so its bits depend on operand
    # order (z * acc and acc * z differ in the last bit for 11 of 40 random
    # values) and on the loop: acc *= z on a one-element array takes another
    # loop than on a batch (10 of 80 components differ). So acc * z out of
    # place into the other work row, as polyval computes it; only the add,
    # the same either way round, in place. Out of place, the bits of each
    # point do not depend on the length of the block.
    for start in range(0, zf.size, _BLOCK):
        zb = zf[start:start + _BLOCK]
        acc, nxt = work[:, :zb.size]
        acc[...] = c[-1]
        for a in c[-2:0:-1]:
            np.multiply(acc, zb, out=nxt)
            nxt += a
            acc, nxt = nxt, acc
        last = np.multiply(acc, zb, out=res[start:start + zb.size])
        last += c[0]


def zero_leg_hypot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.hypot of the moduli of two legs, real or complex and of one
    shape, into out when given. When a leg is all zero (+0.0 or -0.0) the
    result is the other leg's np.abs, without the hypot: hypot(x, +-0) is
    |x| bit for bit, subnormal, huge and infinite x included, and a NaN
    stays NaN. A leg holding a NaN is not all zero."""
    if not b.any():
        return np.abs(a, out=out)
    if not a.any():
        return np.abs(b, out=out)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        a, b = np.abs(a), np.abs(b)
    return np.hypot(a, b, out=out)


def split_modulus(values: np.ndarray) -> np.ndarray:
    """hypot(|F|, |G|) of stacked component values (F, G): the quaternion
    norm of F + G*j, and of an increment when given differences; |F| alone
    when G is all zero, as for a real-coefficient series."""
    return zero_leg_hypot(values[0], values[1])


def on_circle(g: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Boundary data t -> g(e^{it}) of a function of the complex coordinate."""
    return lambda t: g(np.exp(1j * t))


def representation_extend(fplus: Quaternion, fminus: Quaternion,
                          i: ImaginaryUnit, unit: ImaginaryUnit) -> Quaternion:
    """Two-point extension: value at x + unit*y from the values
    fplus = f(x + iy) and fminus = f(x - iy) on the plane of i."""
    half_sum = (fplus + fminus) * 0.5
    twist = hamilton_mul(unit.as_quaternion(), i.as_quaternion())
    return half_sum + hamilton_mul(twist, (fminus - fplus) * 0.5)


def is_intrinsic(f: SliceSeries) -> bool:
    """True when every coefficient is real to 1e-12 (then f(conj q) =
    conj f(q) and f maps each slice plane to itself)."""
    return float(norm_array(f.array[:, 1:]).max()) <= 1e-12
