"""Poisson integrals against a slice circle.

The kernel lives on the circle of one slice plane but is evaluated at any
point of the open unit ball:

    P_i[u](q) = (1/2pi) int_0^2pi u(t) (1 - |q|^2) / |q - e_i(t)|^2 dt,

with e_i(t) = cos t + i sin t and the quaternion norm in the denominator.
Quadrature is the periodic trapezoid rule (spectrally accurate for smooth
boundary data), refusing evaluation points whose distance to the sphere
falls under 10/nodes, where the kernel is no longer resolved.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .quaternion import (
    ImaginaryUnit,
    Quaternion,
    hamilton_mul,
    hmul_array,
    norm,
    norm_array,
    rotate,
    slice_coordinate,
    slice_points_array,
)
from .series import SliceSeries, SplitSeries, on_circle
from .series import eval_complex  # noqa: F401  bound here for benchmarks/test_benchmark.py

MIN_NODES = 16


class BoundaryTooClose(ValueError):
    """Evaluation point too close to the sphere for the node count."""


class BoundaryFunction:
    """Real boundary data on a slice circle, parameterized by angle.

    Wraps a vectorized map from angle arrays to value arrays.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self._fn = fn

    def __call__(self, t) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(t, dtype=float)), dtype=float)

    @classmethod
    def constant(cls, value: float) -> "BoundaryFunction":
        v = float(value)
        return cls(lambda t: np.full_like(t, v))


MODES = ("plus", "minus", "modulus", "modulus_squared_1", "modulus_squared_2")


def _mode_profile(f: SliceSeries, i: ImaginaryUnit, mode: str):
    """Complex point -> value of one comparison mode.

    plus / minus are the sandwich moduli ||f ± i f i|| = 2||component||;
    modulus is ||f||; modulus_squared_k are the squared component moduli.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    s = SplitSeries.of(f, i)

    def at(z: np.ndarray) -> np.ndarray:
        if mode == "modulus":
            return s.modulus(z)
        Fv, Gv = np.abs(s.at(z))
        if mode == "minus":
            return 2.0 * Fv
        if mode == "plus":
            return 2.0 * Gv
        if mode == "modulus_squared_1":
            return Fv ** 2
        return Gv ** 2

    return at


def modulus_boundary_function(f: SliceSeries, i: ImaginaryUnit,
                              mode: str = "modulus") -> BoundaryFunction:
    """Boundary data t -> g(e_i(t)) for the given comparison mode of f."""
    return BoundaryFunction(on_circle(_mode_profile(f, i, mode)))


def _kernel(q: Quaternion, i: ImaginaryUnit, angles: np.ndarray) -> np.ndarray:
    cos_t = np.cos(angles)
    sin_t = np.sin(angles)
    d2 = (
        (q.x0 - cos_t) ** 2
        + (q.x1 - i.v1 * sin_t) ** 2
        + (q.x2 - i.v2 * sin_t) ** 2
        + (q.x3 - i.v3 * sin_t) ** 2
    )
    return (1.0 - norm(q) ** 2) / d2


def _check_interior(q_norm: float, nodes: int):
    if q_norm >= 1.0:
        raise ValueError(f"evaluation point must lie in the open ball, norm {q_norm!r}")
    if 1.0 - q_norm < 10.0 / nodes:
        raise BoundaryTooClose(
            f"1 - |q| = {1.0 - q_norm!r} under the resolution floor {10.0 / nodes!r}"
        )


def poisson_integral(u, q: Quaternion, i: ImaginaryUnit, nodes: int = 4096) -> float:
    """Trapezoid evaluation of P_i[u](q). u may be a BoundaryFunction or any
    vectorized angle callable."""
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes, got {nodes}")
    _check_interior(norm(q), nodes)
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    vals = np.asarray(u(angles), dtype=float)
    return float(np.mean(vals * _kernel(q, i, angles)))


def poisson_integral_slice(u, zs, nodes: int = 4096) -> np.ndarray:
    """P[u] at complex points of the slice's own disc, batched.

    Classical disc Poisson integral; zs is any complex array with |z| < 1
    and 1 - |z| >= 10/nodes.
    """
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes, got {nodes}")
    zs = np.asarray(zs, dtype=complex)
    r = np.abs(zs)
    if np.any(r >= 1.0):
        raise ValueError("evaluation points must lie in the open disc")
    if np.any(1.0 - r < 10.0 / nodes):
        raise BoundaryTooClose("a point sits under the resolution floor")
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    vals = np.asarray(u(angles), dtype=float)
    boundary = np.exp(1j * angles)
    d2 = np.abs(zs[..., None] - boundary) ** 2
    kernel = (1.0 - r[..., None] ** 2) / d2
    return np.mean(vals * kernel, axis=-1)


def harmonic_defect(f: SliceSeries, x: Quaternion, i: ImaginaryUnit,
                    mode: str = "modulus", nodes: int = 4096) -> float:
    """P_i[g](x) - g(x) for g drawn from f per mode, at a point x of the
    slice plane. Nonnegative (up to quadrature error) whenever g is built
    from moduli of the holomorphic split components."""
    z = slice_coordinate(x, i)
    profile = _mode_profile(f, i, mode)
    p = poisson_integral(BoundaryFunction(on_circle(profile)), x, i, nodes)
    return p - float(profile(np.asarray([z]))[0])


def rotation_equivariance_residual(u, r: Quaternion, q: Quaternion,
                                   i: ImaginaryUnit, nodes: int = 4096) -> float:
    """| P_(rir^-1)[u](q) - P_i[u](r^-1 q r) |.

    Both sides are computed by independent quadratures; the angle
    parameterization of u transports unchanged because conjugation by r
    maps e_i(t) to e_(rir^-1)(t).
    """
    k_q = rotate(r, i.as_quaternion())
    k = ImaginaryUnit.from_quaternion(k_q, tol=1e-9)
    lhs = poisson_integral(u, q, k, nodes)
    rhs = poisson_integral(u, rotate(r.conjugate(), q), i, nodes)
    return abs(lhs - rhs)


def star_kernel_bound(f: SliceSeries, x: Quaternion, i: ImaginaryUnit,
                      j: ImaginaryUnit, nodes: int = 4096) -> tuple[float, float]:
    """Mean of ||(x - e_j(t))^(-*2) * f(e_j(t))|| (1 - |x|^2) against twice
    the Poisson mean of ||f||, for x on the plane of i.

    The left side uses the pointwise identity that, for x in the plane of i,

        (x - e_j(t))^(-*2) * f(e_j(t))
          = [ (1 + j i)(x - e_i(-t))^-2 f(e_i(-t))
            + (1 - j i)(x - e_i(t))^-2 f(e_i(t)) ] / 2,

    with complex inversions taken inside the plane of i. Returns (lhs, rhs);
    lhs <= rhs up to quadrature error.
    """
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes, got {nodes}")
    z = slice_coordinate(x, i)
    _check_interior(abs(z), nodes)

    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    e_plus = np.exp(1j * angles)
    e_minus = np.exp(-1j * angles)

    s = SplitSeries.of(f, i)

    # the complex inverses act on the left as points of the plane of i
    inv_minus = slice_points_array(i, (z - e_minus) ** -2.0)
    inv_plus = slice_points_array(i, (z - e_plus) ** -2.0)
    f_minus = s.values(e_minus)
    f_plus = s.values(e_plus)

    ji = hamilton_mul(j.as_quaternion(), i.as_quaternion())
    one_plus = np.array((1.0 + ji.x0, ji.x1, ji.x2, ji.x3))
    one_minus = np.array((1.0 - ji.x0, -ji.x1, -ji.x2, -ji.x3))

    term = 0.5 * (
        hmul_array(one_plus, hmul_array(inv_minus, f_minus))
        + hmul_array(one_minus, hmul_array(inv_plus, f_plus))
    )
    weight = 1.0 - abs(z) ** 2
    lhs = float(np.mean(norm_array(term)) * weight)

    rhs = 2.0 * poisson_integral(BoundaryFunction(on_circle(s.modulus)), x, i, nodes)
    return lhs, rhs
