"""Poisson integrals against a slice circle.

The kernel lives on the circle of one slice plane but is evaluated at any
point of the open unit ball:

    P_i[u](q) = (1/2pi) int_0^2pi u(t) (1 - |q|^2) / |q - e_i(t)|^2 dt,

with e_i(t) = cos t + i sin t and the quaternion norm in the denominator.
Writing q through its slice coordinate z = x0 + i<vec q, i> and its squared
distance off^2 from the plane of i, |q - e_i(t)|^2 = |z - e^{it}|^2 + off^2,
so one disc routine serves points on the plane (off^2 = 0) and off it.
Quadrature is the periodic trapezoid rule (spectrally accurate for smooth
boundary data), refusing evaluation points whose distance to the sphere
falls under 10/nodes, where the kernel is no longer resolved.

Boundary data u are plain callables from an angle array to a value array;
u may return k stacked rows, (k, nodes), which share one kernel.

The (points, nodes) kernel is built and applied in blocks of _BLOCK points,
so no temporary outgrows one block; each value is the same expression as
for the whole array at once, so blocking moves no bit. A caller that
evaluates on one grid many times passes the kernel it built once; the
estimators and suites keep each plan-bound grid's kernel in the plan's
store (lipschitz.grid_kernel), so a run builds it once.
"""

from __future__ import annotations

import numpy as np

from .majorant import Majorant
from .quaternion import (
    ImaginaryUnit,
    Quaternion,
    hamilton_mul,
    hmul_array,
    norm_array,
    rotate,
    slice_coordinate,
    slice_points_array,
)
from .series import SliceSeries, SplitSeries, eval_complex, on_circle

MIN_NODES = 16
_BLOCK = 128  # kernel rows built and applied at a time


class BoundaryTooClose(ValueError):
    """Evaluation point too close to the sphere for the node count."""


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
                              mode: str = "modulus"):
    """Boundary data t -> g(e_i(t)) for the given comparison mode of f."""
    return on_circle(_mode_profile(f, i, mode))


def _check_interior(r, nodes: int):
    """Refuse fewer than MIN_NODES nodes, norms r outside the open ball and
    norms under the resolution floor 1 - r < 10/nodes."""
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes, got {nodes}")
    if np.any(r >= 1.0):
        raise ValueError("evaluation points must lie in the open ball")
    if np.any(1.0 - r < 10.0 / nodes):
        raise BoundaryTooClose("a point sits under the resolution floor")


def resolved_cap(cap: float, nodes: int) -> float:
    """The largest radius up to cap that `nodes` resolve: just inside the
    floor 1 - r >= 10/nodes."""
    return min(cap, 1.0 - 10.0 / nodes - 1e-9)


def _angles(nodes: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(nodes) / nodes


def poisson_kernel(zs, nodes: int, off2: float = 0.0) -> np.ndarray:
    """The trapezoid kernel (1 - r^2) / (|z - e^{it}|^2 + off2) at `nodes`
    equispaced angles, r^2 = |z|^2 + off2, as a (points, nodes) array over
    the points of zs in flat order, built _BLOCK rows at a time."""
    zs = np.asarray(zs, dtype=complex).ravel()
    r = np.hypot(np.abs(zs), np.sqrt(off2))  # |z| to the bit when off2 = 0
    _check_interior(r, nodes)
    e = np.exp(1j * _angles(nodes))
    kernel = np.empty((zs.size, nodes))
    for lo in range(0, zs.size, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        d2 = np.abs(zs[rows, None] - e) ** 2 + off2
        kernel[rows] = (1.0 - r[rows, None] ** 2) / d2
    return kernel


def _trapezoid(u, zs, off2, nodes: int, kernel=None) -> np.ndarray:
    """Trapezoid mean of u(t) (1 - r^2) / (|z - e^{it}|^2 + off2) over
    `nodes` equispaced angles, r^2 = |z|^2 + off2, for every z of zs and
    every row of u. kernel, when given, is poisson_kernel(zs, nodes, off2)."""
    zs = np.asarray(zs, dtype=complex)
    if kernel is None:
        kernel = poisson_kernel(zs, nodes, off2)
    elif kernel.shape != (zs.size, nodes):
        raise ValueError(f"kernel of shape {kernel.shape} for {zs.size} points "
                         f"and {nodes} nodes")
    vals = np.asarray(u(_angles(nodes)), dtype=float)
    rows = vals.reshape(-1, nodes)
    means = np.empty((len(rows), len(kernel)))
    # one block and one row at a time, so no product outgrows a block
    for lo in range(0, len(kernel), _BLOCK):
        block = kernel[lo:lo + _BLOCK]
        for row, out in zip(rows, means):
            out[lo:lo + _BLOCK] = np.mean(row * block, axis=-1)
    return means.reshape(vals.shape[:-1] + zs.shape)


def poisson_integral(u, q: Quaternion, i: ImaginaryUnit, nodes: int = 4096) -> float:
    """Trapezoid evaluation of P_i[u](q) at any point q of the open ball."""
    y = q.x1 * i.v1 + q.x2 * i.v2 + q.x3 * i.v3
    off2 = (q.x1 - y * i.v1) ** 2 + (q.x2 - y * i.v2) ** 2 + (q.x3 - y * i.v3) ** 2
    return float(_trapezoid(u, complex(q.x0, y), off2, nodes))


def poisson_integral_slice(u, zs, nodes: int = 4096, kernel=None) -> np.ndarray:
    """P[u] at complex points of the slice's own disc, batched.

    Classical disc Poisson integral; zs is any complex array with |z| < 1
    and 1 - |z| >= 10/nodes.  Stacked data u -> (k, nodes) give a
    (k, *zs.shape) result. kernel, when given, is poisson_kernel(zs, nodes).
    """
    return _trapezoid(u, zs, 0.0, nodes, kernel)


def defect_sup(comps, omega: Majorant, xs, nodes: int, power: int = 1,
               kernel=None) -> np.ndarray:
    """sup over the disc points xs of (P[|c|^power](x) - |c(x)|^power) /
    omega(1 - |x|)^power for each complex coefficient array c of comps, as
    a (k,) array, from one Poisson call with the components stacked.
    kernel, when given, is poisson_kernel(xs, nodes)."""
    def moduli(z):
        return np.stack([np.abs(eval_complex(c, z)) ** power for c in comps])

    p_vals = poisson_integral_slice(on_circle(moduli), xs, nodes, kernel)
    defect = p_vals - moduli(xs)
    return np.max(defect / omega(1.0 - np.abs(xs)) ** power, axis=-1)


def harmonic_defect(f: SliceSeries, x: Quaternion, i: ImaginaryUnit,
                    mode: str = "modulus", nodes: int = 4096) -> float:
    """P_i[g](x) - g(x) for g drawn from f per mode, at a point x of the
    slice plane. Nonnegative (up to quadrature error) whenever g is built
    from moduli of the holomorphic split components."""
    z = slice_coordinate(x, i)
    profile = _mode_profile(f, i, mode)
    p = poisson_integral(on_circle(profile), x, i, nodes)
    return p - float(profile(np.asarray([z]))[0])


def rotation_equivariance_residual(u, r: Quaternion, q: Quaternion,
                                   i: ImaginaryUnit, nodes: int = 4096) -> float:
    """| P_(rir^-1)[u](q) - P_i[u](r^-1 q r) |.

    Both sides are computed by independent quadratures; the angle
    parameterization of u transports unchanged because conjugation by r
    maps e_i(t) to e_(rir^-1)(t).
    """
    k_q = rotate(r, i.as_quaternion())
    k = ImaginaryUnit.from_quaternion(k_q)
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
    z = slice_coordinate(x, i)
    _check_interior(abs(z), nodes)

    angles = _angles(nodes)
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

    rhs = 2.0 * poisson_integral(on_circle(s.modulus), x, i, nodes)
    return lhs, rhs
