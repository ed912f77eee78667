"""Quaternion arithmetic, slice coordinates, and rotations.

Scalars are plain floats; batch helpers at the bottom operate on numpy
arrays of shape (..., 4) with components ordered (x0, x1, x2, x3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12


class NonUnitRotor(ValueError):
    """Rotation requested with a quaternion that is not unit length."""


@dataclass(frozen=True)
class Quaternion:
    """q = x0 + x1*e1 + x2*e2 + x3*e3 with the Hamilton multiplication rules
    e1^2 = e2^2 = e3^2 = -1, e1*e2 = e3, e2*e3 = e1, e3*e1 = e2."""

    x0: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    def __post_init__(self):
        for name in ("x0", "x1", "x2", "x3"):
            object.__setattr__(self, name, float(getattr(self, name)))

    # -- structure ---------------------------------------------------------

    def components(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.x2, self.x3)

    def vector_norm(self) -> float:
        return math.sqrt(self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return hamilton_mul(self, other)
        return Quaternion(self.x0 * other, self.x1 * other,
                          self.x2 * other, self.x3 * other)

    def __rmul__(self, other):
        # other is a real scalar; reals commute with everything
        return Quaternion(self.x0 * other, self.x1 * other,
                          self.x2 * other, self.x3 * other)

    def __truediv__(self, scalar: float) -> "Quaternion":
        return Quaternion(self.x0 / scalar, self.x1 / scalar,
                          self.x2 / scalar, self.x3 / scalar)

    def __abs__(self) -> float:
        return norm(self)

    def conjugate(self) -> "Quaternion":
        """x0 - x1*e1 - x2*e2 - x3*e3; anti-automorphism of the product."""
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def inverse(self) -> "Quaternion":
        n2 = self.x0 ** 2 + self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.x0 / n2, -self.x1 / n2, -self.x2 / n2, -self.x3 / n2)


@dataclass(frozen=True)
class ImaginaryUnit:
    """Point of the 2-sphere of imaginary units: v1*e1 + v2*e2 + v3*e3 with
    v1^2 + v2^2 + v3^2 = 1 (enforced within 1e-12)."""

    v1: float
    v2: float
    v3: float

    def __post_init__(self):
        for name in ("v1", "v2", "v3"):
            object.__setattr__(self, name, float(getattr(self, name)))
        n = math.sqrt(self.v1 ** 2 + self.v2 ** 2 + self.v3 ** 2)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"imaginary unit must have length 1, got {n!r}")

    @classmethod
    def from_vector(cls, v1: float, v2: float, v3: float) -> "ImaginaryUnit":
        """The unit along a nonzero 3-vector: v over its norm, or v as it is
        when that norm is 1 to rounding, so a unit this returned keeps its
        bits when it comes back. ValueError for a zero vector, or one whose
        norm over- or underflows."""
        v = np.array((v1, v2, v3), dtype=float)
        with np.errstate(over="ignore", under="ignore"):  # caught below
            n = float(np.linalg.norm(v))
        if n == 0.0:
            raise ValueError("unit vector must be nonzero")
        if abs(n - 1.0) > 1e-15:
            v = v / n
        try:
            return cls(*v)
        except ValueError as exc:
            raise ValueError(f"cannot normalize unit vector {(v1, v2, v3)!r}") from exc

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "ImaginaryUnit":
        """Normalize the vector part of q; its real part must be within 1e-9
        of zero."""
        if abs(q.x0) > 1e-9:
            raise ValueError("quaternion has a nonzero real part")
        return cls.from_vector(q.x1, q.x2, q.x3)

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.v1, self.v2, self.v3)

    def components(self) -> tuple[float, float, float]:
        return (self.v1, self.v2, self.v3)

    def dot(self, other: "ImaginaryUnit") -> float:
        return self.v1 * other.v1 + self.v2 * other.v2 + self.v3 * other.v3

    def __neg__(self) -> "ImaginaryUnit":
        return ImaginaryUnit(-self.v1, -self.v2, -self.v3)


def hamilton_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p*q. Noncommutative; norm(p*q) = norm(p)*norm(q)."""
    a0, a1, a2, a3 = p.x0, p.x1, p.x2, p.x3
    b0, b1, b2, b3 = q.x0, q.x1, q.x2, q.x3
    return Quaternion(
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def norm(q: Quaternion) -> float:
    return math.sqrt(q.x0 ** 2 + q.x1 ** 2 + q.x2 ** 2 + q.x3 ** 2)


def rotate(r: Quaternion, q: Quaternion) -> Quaternion:
    """Conjugation q -> r*q*conj(r) by a unit quaternion r.

    Preserves the real part and the norm; maps the slice of q onto the slice
    of the rotated imaginary unit.
    """
    if abs(norm(r) - 1.0) > UNIT_TOL:
        raise NonUnitRotor(f"rotor must be unit length, got norm {norm(r)!r}")
    return hamilton_mul(hamilton_mul(r, q), r.conjugate())


def orthogonal_unit(i: ImaginaryUnit) -> ImaginaryUnit:
    """Deterministic unit perpendicular to i: Gram-Schmidt applied to the
    standard basis vector of R^3 least aligned with i (the first on ties),
    whose rejection from i has norm at least sqrt(2/3)."""
    iv = i.components()
    k = min(range(3), key=lambda m: abs(iv[m]))
    cand = [0.0, 0.0, 0.0]
    cand[k] = 1.0
    cand = [cand[m] - iv[k] * iv[m] for m in range(3)]
    n = math.sqrt(sum(c * c for c in cand))
    return ImaginaryUnit(cand[0] / n, cand[1] / n, cand[2] / n)


def slice_point(i: ImaginaryUnit, z: complex) -> Quaternion:
    """Embed the complex number z = x + iy into the slice plane of i."""
    return Quaternion(z.real, z.imag * i.v1, z.imag * i.v2, z.imag * i.v3)


def slice_coordinate(q: Quaternion, i: ImaginaryUnit) -> complex:
    """Complex coordinate of a point lying on the slice plane of i.

    Raises ValueError when q is farther than 1e-9 from that plane.
    """
    y = q.x1 * i.v1 + q.x2 * i.v2 + q.x3 * i.v3
    # rejection vector, not sqrt(|vec|^2 - y^2): the difference of squares
    # cancels and inflates rounding noise past 1e-9 for points built by
    # slice_point with a generic unit
    off = math.hypot(q.x1 - y * i.v1, q.x2 - y * i.v2, q.x3 - y * i.v3)
    if off > 1e-9:
        raise ValueError(f"point is {off!r} away from the slice plane")
    return complex(q.x0, y)


# -- batch helpers on (..., 4) float arrays ---------------------------------


def _components(q) -> tuple:
    if isinstance(q, Quaternion):
        return q.components()
    if isinstance(q, (int, float)):
        return (q, 0.0, 0.0, 0.0)
    return tuple(q)


def quat_array(qs) -> np.ndarray:
    """Stack quaternions, reals or 4-sequences into an (n, 4) float array."""
    return np.asarray([_components(q) for q in qs], dtype=float)


def from_array(a) -> Quaternion:
    a = np.asarray(a, dtype=float)
    return Quaternion(a[0], a[1], a[2], a[3])


def hmul_array(a, b) -> np.ndarray:
    """Broadcasting Hamilton product of component arrays shaped (..., 4)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2, a3 = np.moveaxis(a, -1, 0)
    b0, b1, b2, b3 = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ],
        axis=-1,
    )


def conj_array(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def norm_array(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return np.sqrt(np.sum(a * a, axis=-1))


def slice_points_array(i: ImaginaryUnit, zs) -> np.ndarray:
    """Embed an array of complex numbers into the slice plane of i."""
    zs = np.asarray(zs, dtype=complex)
    out = np.empty(zs.shape + (4,), dtype=float)
    out[..., 0] = zs.real
    out[..., 1] = zs.imag * i.v1
    out[..., 2] = zs.imag * i.v2
    out[..., 3] = zs.imag * i.v3
    return out


# Canonical basis, both flavors.
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
E1 = Quaternion(0.0, 1.0, 0.0, 0.0)
E2 = Quaternion(0.0, 0.0, 1.0, 0.0)
E3 = Quaternion(0.0, 0.0, 0.0, 1.0)
UNIT_E1 = ImaginaryUnit(1.0, 0.0, 0.0)
UNIT_E2 = ImaginaryUnit(0.0, 1.0, 0.0)
UNIT_E3 = ImaginaryUnit(0.0, 0.0, 1.0)
