"""Power series q -> sum_n q^n a_n with right quaternion coefficients.

These are the polynomial (truncated-series) models of slice regular
functions on the unit ball: evaluation is by left-power Horner, the
noncommutative *-product is the Cauchy convolution of coefficients, and
each series splits over a slice plane into two complex-coefficient series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .quaternion import (
    ImaginaryUnit,
    Quaternion,
    hamilton_mul,
    hmul_array,
    norm,
    orthogonal_unit,
    quat_array,
)

PointwiseFunction = Callable[[Quaternion], Quaternion]

BASE_FLOOR = 1e-9  # pointwise formulas are skipped under this norm


class ZeroBase(ValueError):
    """Pointwise *-product requested at a point where the left factor
    vanishes (the conjugated argument f(q)^-1 q f(q) is undefined)."""


class AsymmetryDetected(ArithmeticError):
    """Symmetrization produced different results in the two orders, or
    complex residue above tolerance; indicates a corrupted series."""


class NotInvertibleAtOrigin(ValueError):
    """*-inverse requested for a series whose symmetrization vanishes at 0."""


class StepOutOfDomain(ValueError):
    """Finite-difference stencil left the open unit ball."""


def _coerce_coefficient(c) -> Quaternion:
    if isinstance(c, Quaternion):
        return c
    if isinstance(c, (int, float)):
        return Quaternion(float(c), 0.0, 0.0, 0.0)
    seq = tuple(float(v) for v in c)
    if len(seq) != 4:
        raise ValueError(f"coefficient needs 4 components, got {len(seq)}")
    return Quaternion(*seq)


@dataclass(frozen=True)
class SliceSeries:
    """Immutable coefficient list, ascending degree, at least one entry."""

    coefficients: tuple[Quaternion, ...]

    def __post_init__(self):
        coeffs = tuple(_coerce_coefficient(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_real(cls, values: Sequence[float]) -> "SliceSeries":
        return cls(tuple(Quaternion(float(v), 0.0, 0.0, 0.0) for v in values))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient_array(self) -> np.ndarray:
        return quat_array(self.coefficients)

    def truncated(self, degree: int) -> "SliceSeries":
        """Coefficients 0..degree, zero-padded when the series is shorter."""
        zero = Quaternion()
        coeffs = list(self.coefficients[: degree + 1])
        coeffs += [zero] * (degree + 1 - len(coeffs))
        return SliceSeries(tuple(coeffs))

    def __call__(self, q: Quaternion) -> Quaternion:
        return evaluate(self, q)

    def __add__(self, other: "SliceSeries") -> "SliceSeries":
        n = max(self.degree, other.degree)
        a = self.truncated(n).coefficients
        b = other.truncated(n).coefficients
        return SliceSeries(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "SliceSeries") -> "SliceSeries":
        return self + (-other)

    def __neg__(self) -> "SliceSeries":
        return SliceSeries(tuple(-c for c in self.coefficients))

    def __mul__(self, other):
        if isinstance(other, SliceSeries):
            return star_product(self, other)
        a = _coerce_coefficient(other)
        # right factor multiplies every coefficient on the right
        return SliceSeries(tuple(hamilton_mul(c, a) for c in self.coefficients))


def evaluate(f: SliceSeries, q: Quaternion) -> Quaternion:
    """Horner evaluation of sum_n q^n a_n (powers on the left)."""
    acc = f.coefficients[-1]
    for n in range(f.degree - 1, -1, -1):
        acc = hamilton_mul(q, acc) + f.coefficients[n]
    return acc


def evaluate_batch(f: SliceSeries, points: np.ndarray) -> np.ndarray:
    """Vectorized Horner over an array of points shaped (..., 4)."""
    pts = np.asarray(points, dtype=float)
    coeffs = f.coefficient_array()
    acc = np.broadcast_to(coeffs[-1], pts.shape).copy()
    for n in range(f.degree - 1, -1, -1):
        acc = hmul_array(pts, acc)
        acc += coeffs[n]
    return acc


def cullen_derivative(f: SliceSeries) -> SliceSeries:
    """Term-wise derivative sum_n q^(n-1) * n * a_n."""
    if f.degree == 0:
        return SliceSeries((Quaternion(),))
    return SliceSeries(tuple(c * n for n, c in enumerate(f.coefficients) if n >= 1))


def star_product(f: SliceSeries, g: SliceSeries) -> SliceSeries:
    """Cauchy convolution c_n = sum_k a_k b_(n-k); order of factors matters."""
    A = f.coefficient_array()
    B = g.coefficient_array()

    def conv(i: int, j: int) -> np.ndarray:
        return np.convolve(A[:, i], B[:, j])

    out = np.stack(
        [
            conv(0, 0) - conv(1, 1) - conv(2, 2) - conv(3, 3),
            conv(0, 1) + conv(1, 0) + conv(2, 3) - conv(3, 2),
            conv(0, 2) - conv(1, 3) + conv(2, 0) + conv(3, 1),
            conv(0, 3) + conv(1, 2) - conv(2, 1) + conv(3, 0),
        ],
        axis=-1,
    )
    return SliceSeries(tuple(Quaternion(*row) for row in out))


def star_pointwise(f: SliceSeries, g: SliceSeries, q: Quaternion,
                   floor: float = BASE_FLOOR) -> Quaternion:
    """(f*g)(q) = f(q) * g(f(q)^-1 q f(q)) wherever f(q) != 0."""
    fq = evaluate(f, q)
    if norm(fq) <= floor:
        raise ZeroBase(f"left factor vanishes at {q!r}")
    moved = hamilton_mul(hamilton_mul(fq.inverse(), q), fq)
    return hamilton_mul(fq, evaluate(g, moved))


def regular_conjugate(f: SliceSeries) -> SliceSeries:
    """Coefficient-wise quaternion conjugation f^c."""
    return SliceSeries(tuple(c.conjugate() for c in f.coefficients))


def symmetrization(f: SliceSeries) -> SliceSeries:
    """f^s = f * f^c = f^c * f; always has real coefficients.

    Both orders are computed; a mismatch above 1e-10 (or imaginary residue
    above 1e-12) raises AsymmetryDetected.
    """
    fc = regular_conjugate(f)
    left = star_product(f, fc)
    right = star_product(fc, f)
    scale = max(1.0, max(norm(c) for c in left.coefficients))
    diff = max(norm(a - b) for a, b in zip(left.coefficients, right.coefficients))
    if diff > 1e-10 * scale:
        raise AsymmetryDetected(f"orders disagree by {diff!r}")
    residue = max(c.vector_norm() for c in left.coefficients)
    if residue > 1e-12 * scale:
        raise AsymmetryDetected(f"imaginary residue {residue!r}")
    return SliceSeries(tuple(Quaternion(c.x0) for c in left.coefficients))


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
    fs = symmetrization(f)
    s = np.array([c.x0 for c in fs.coefficients])
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


def split(f: SliceSeries, i: ImaginaryUnit):
    """Split coefficients a_n = alpha_n + beta_n * j over the plane of i.

    j is the deterministic perpendicular unit; alpha and beta are returned
    as complex arrays relative to the basis (1, i) and (j, i*j). Extraction
    uses the sandwich identities 2*alpha = a - i*a*i and 2*beta*j = a + i*a*i.
    """
    j = orthogonal_unit(i)
    iq = i.as_quaternion()
    jq = j.as_quaternion()
    neg_jq = -jq
    F = np.empty(f.degree + 1, dtype=complex)
    G = np.empty(f.degree + 1, dtype=complex)
    for n, a in enumerate(f.coefficients):
        iai = hamilton_mul(iq, hamilton_mul(a, iq))
        alpha = (a - iai) * 0.5
        beta = hamilton_mul((a + iai) * 0.5, neg_jq)  # (beta*j)*j^-1
        F[n] = complex(alpha.x0, alpha.x1 * i.v1 + alpha.x2 * i.v2 + alpha.x3 * i.v3)
        G[n] = complex(beta.x0, beta.x1 * i.v1 + beta.x2 * i.v2 + beta.x3 * i.v3)
    return F, G, j


def eval_complex(coeffs: np.ndarray, z) -> np.ndarray:
    """Evaluate an ascending complex coefficient array at complex points."""
    return npoly.polyval(np.asarray(z, dtype=complex), np.asarray(coeffs, dtype=complex))


def split_modulus(values: np.ndarray) -> np.ndarray:
    """hypot(|F|, |G|) of stacked component values (F, G): the quaternion
    norm of F + G*j, and of an increment when given differences."""
    return np.hypot(np.abs(values[0]), np.abs(values[1]))


def on_circle(g: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Boundary data t -> g(e^{it}) of a function of the complex coordinate."""
    return lambda t: g(np.exp(1j * t))


@dataclass(frozen=True)
class SplitSeries:
    """A series on the plane of i through its splitting f = F + G*j, with F
    and G complex; every slice sample is taken from the two components."""

    F: np.ndarray
    G: np.ndarray
    i: ImaginaryUnit
    j: ImaginaryUnit

    @classmethod
    def of(cls, f: SliceSeries, i: ImaginaryUnit) -> "SplitSeries":
        F, G, j = split(f, i)
        return cls(F, G, i, j)

    def derivative(self) -> "SplitSeries":
        return SplitSeries(npoly.polyder(self.F), npoly.polyder(self.G), self.i, self.j)

    def at(self, z) -> np.ndarray:
        """Component values (F(z), G(z)) stacked along a new first axis."""
        return np.stack([eval_complex(self.F, z), eval_complex(self.G, z)])

    def modulus(self, z) -> np.ndarray:
        """||f|| at complex coordinates z."""
        return split_modulus(self.at(z))

    def values(self, z) -> np.ndarray:
        """Quaternion values F(z) + G(z)*j at complex coordinates z, as (..., 4)."""
        i, j = self.i, self.j
        ijq = hamilton_mul(i.as_quaternion(), j.as_quaternion())
        basis = np.array(
            [
                (1.0, 0.0, 0.0, 0.0),
                (0.0, i.v1, i.v2, i.v3),
                (0.0, j.v1, j.v2, j.v3),
                ijq.components(),
            ]
        )
        Fv, Gv = self.at(z)
        parts = np.stack([Fv.real, Fv.imag, Gv.real, Gv.imag], axis=-1)
        return parts @ basis


def representation_extend(fplus: Quaternion, fminus: Quaternion,
                          i: ImaginaryUnit, unit: ImaginaryUnit) -> Quaternion:
    """Two-point extension: value at x + unit*y from the values
    fplus = f(x + iy) and fminus = f(x - iy) on the plane of i."""
    half_sum = (fplus + fminus) * 0.5
    twist = hamilton_mul(unit.as_quaternion(), i.as_quaternion())
    return half_sum + hamilton_mul(twist, (fminus - fplus) * 0.5)


def is_intrinsic(f: SliceSeries, tol: float = 1e-12) -> bool:
    """True when every coefficient is real (then f(conj q) = conj f(q) and
    f maps each slice plane to itself)."""
    return max(c.vector_norm() for c in f.coefficients) <= tol


def slice_cr_residual(f: PointwiseFunction, z: Quaternion, i: ImaginaryUnit,
                      h: float) -> float:
    """Centered-difference residual of 0.5*(d/dx + i d/dy) f on the plane of i.

    Near zero (O(h^2)) exactly when the restriction of f to the plane is
    holomorphic there. The four stencil points must stay inside the unit ball.
    """
    if h <= 0.0:
        raise ValueError("step must be positive")
    iq = i.as_quaternion()
    stencil = [
        z + Quaternion(h),
        z - Quaternion(h),
        z + h * iq,
        z - h * iq,
    ]
    for p in stencil:
        if norm(p) >= 1.0:
            raise StepOutOfDomain(f"stencil point {p!r} leaves the unit ball")
    dx = (f(stencil[0]) - f(stencil[1])) / (2.0 * h)
    dy = (f(stencil[2]) - f(stencil[3])) / (2.0 * h)
    return norm((dx + hamilton_mul(iq, dy)) * 0.5)


def evaluate_on_slice(f: SliceSeries, i: ImaginaryUnit, zs) -> np.ndarray:
    """Values of f along the plane of i at complex coordinates zs, as (..., 4)."""
    return SplitSeries.of(f, i).values(zs)
