"""Poisson integrals against a slice circle.

The kernel lives on the circle of one slice plane but is evaluated at any
point of the open unit ball:

    P_i[u](q) = (1/2pi) int_0^2pi u(t) (1 - |q|^2) / |q - e_i(t)|^2 dt,

with e_i(t) = cos t + i sin t and the quaternion norm in the denominator.
Writing q through its slice coordinate z = x0 + i<vec q, i> and its squared
distance off^2 from the plane of i, |q - e_i(t)|^2 = |z - e^{it}|^2 + off^2.
Quadrature is the periodic trapezoid rule (spectrally accurate for smooth
boundary data), refusing points whose distance to the sphere falls under
10/nodes, where the kernel is no longer resolved. Boundary data u are
callables from an angle array to values, or to k stacked rows (k, nodes).

Off the plane the kernel is not the disc Poisson kernel: poisson_integral
sums it directly at one point. On the plane the trapezoid mean has a
closed form (Trefethen & Weideman, SIAM Review 56, 2014): with u^ =
fft(u)/N and A(z) = sum_(m<N) u^_m z^m it is 2 Re(A(z)/(1 - z^N)) - u^_0.
poisson_integral_slice evaluates A by baby-step/giant-step (Paterson &
Stockmeyer, SIAM J. Comput. 2, 1973) from about 2 sqrt(N) powers of each
point, so no (points, nodes) array is built. P[|c|^2] of a polynomial c
is exact from the autocorrelation of its coefficients (poisson_modulus_sq).

Memory. The Poisson data a run reuses sit in its SamplePlan's store, under
one lifetime rule: a key that holds a member leaves with that member
(plan.drop), any other key lives for the run. A verify run stores, per
member, the spectra of (|F|, |G|) and of ||f|| as one entry
(lipschitz.circle_spectrum), and, for the run, the powers of the
144-point defect grid. Other point sets keep their powers outside the
store: the cone suite builds those of its 26 points once, in its suite
function, and N1 takes those of its ray grid, which grows with the points
(2048 at 4096 points), per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .series import SliceSeries, eval_complex, on_circle, split, zero_leg_hypot

MIN_NODES = 16


class BoundaryTooClose(ValueError):
    """Evaluation point too close to the sphere for the node count."""


# each comparison mode of the component moduli a = (|F|, |G|): the sandwich
# moduli ||f +- i f i|| = 2|G|, 2|F|, ||f||, and the squared moduli
_PROFILES = {
    "plus": lambda a: 2.0 * a[1],
    "minus": lambda a: 2.0 * a[0],
    "modulus": lambda a: zero_leg_hypot(a[0], a[1]),
    "modulus_squared_1": lambda a: a[0] ** 2,
    "modulus_squared_2": lambda a: a[1] ** 2,
}
MODES = tuple(_PROFILES)


def _mode_profile(f: SliceSeries, i: ImaginaryUnit, mode: str):
    """Complex point -> value of one comparison mode of f on the plane of i."""
    if mode not in _PROFILES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    s, profile = split(f, i), _PROFILES[mode]
    return lambda z: profile(np.abs(s.at(z)))


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


def poisson_integral(u, q: Quaternion, i: ImaginaryUnit, nodes: int = 4096) -> float:
    """Trapezoid evaluation of P_i[u](q) at any point q of the open ball,
    summing the kernel (1 - |q|^2) / (|z - e^{it}|^2 + off^2) directly."""
    y = q.x1 * i.v1 + q.x2 * i.v2 + q.x3 * i.v3
    off2 = (q.x1 - y * i.v1) ** 2 + (q.x2 - y * i.v2) ** 2 + (q.x3 - y * i.v3) ** 2
    z = complex(q.x0, y)
    r = np.hypot(abs(z), np.sqrt(off2))
    _check_interior(r, nodes)
    t = _angles(nodes)
    return float(np.mean(u(t) * ((1.0 - r ** 2) / (np.abs(z - np.exp(1j * t)) ** 2 + off2))))


def _steps(nodes: int) -> tuple[int, int]:
    """The baby step s = ceil(sqrt(nodes)) and the giant step count g =
    ceil(nodes / s); the coefficients are zero-padded to g*s."""
    s = math.isqrt(nodes - 1) + 1
    return s, -(-nodes // s)


@dataclass(frozen=True, eq=False)
class BoundarySpectrum:
    """Boundary data sampled at the `nodes` angles, in the form the
    spectral mean reads: coef holds fft(row) / nodes of each of its rows,
    zero-padded to g*s columns, and shape is the data's leading shape."""

    coef: np.ndarray
    shape: tuple
    nodes: int


def boundary_spectrum(vals, nodes: int) -> BoundarySpectrum:
    """The BoundarySpectrum of data (..., nodes) at the `nodes` angles,
    from one FFT call over its rows."""
    vals = np.asarray(vals, dtype=float)
    rows = vals.reshape(-1, nodes)
    s, g = _steps(nodes)
    coef = np.zeros((len(rows), g * s), dtype=complex)
    coef[:, :nodes] = np.fft.fft(rows) / nodes
    coef.setflags(write=False)
    return BoundarySpectrum(coef, vals.shape[:-1], nodes)


@dataclass(frozen=True, eq=False)
class SlicePowers:
    """Disc points zs with the powers the spectral mean takes of them at
    `nodes` nodes: baby (points, s) = z^b and giant (points, g + 1) =
    (z^s)^a."""

    zs: np.ndarray
    baby: np.ndarray
    giant: np.ndarray
    nodes: int

    # np.size reads it: a mean at stored powers counts its points as one
    # at the bare points does
    @property
    def size(self) -> int:
        return self.zs.size


def slice_powers(zs, nodes: int) -> SlicePowers:
    """The SlicePowers of complex points zs of the slice's disc (|z| < 1,
    1 - |z| >= 10/nodes); its baby and giant powers are alive together."""
    zs = np.asarray(zs, dtype=complex)
    _check_interior(np.abs(zs), nodes)
    s, g = _steps(nodes)
    z = zs.ravel()[:, None]
    powers = SlicePowers(zs, z ** np.arange(s), (z ** s) ** np.arange(g + 1), nodes)
    powers.baby.setflags(write=False)
    powers.giant.setflags(write=False)
    return powers


def poisson_integral_slice(u, zs, nodes: int = 4096) -> np.ndarray:
    """P[u] at complex points zs of the slice's own disc (|z| < 1, 1 - |z|
    >= 10/nodes), batched; stacked data u -> (k, nodes) give (k, *zs.shape).
    u is a callable from the angles to the data or the data's
    BoundarySpectrum; zs are the points or their SlicePowers, for points
    that many means share.

    The baby step is one product of the (points, s) baby powers with the
    (k, s, g) coefficient blocks, the giant step sums against (z^s)^a; the
    blocks are scaled in place, so one (k, points, g) block array is
    alive. The product is not split into row chunks: OpenBLAS zgemm may
    round a row differently when the row count changes."""
    spec = u if isinstance(u, BoundarySpectrum) else boundary_spectrum(u(_angles(nodes)), nodes)
    powers = zs if isinstance(zs, SlicePowers) else slice_powers(zs, nodes)
    if nodes != spec.nodes or nodes != powers.nodes:
        raise ValueError(f"boundary data or powers taken for another node count than {nodes}")
    s, g = _steps(nodes)
    blocks = powers.baby @ spec.coef.reshape(-1, g, s).transpose(0, 2, 1)  # (k, points, g)
    blocks *= powers.giant[:, :g]
    a = np.sum(blocks, axis=-1)
    z_n = powers.giant[:, nodes // s] * powers.baby[:, nodes % s]
    means = 2.0 * (a / (1.0 - z_n)).real - spec.coef[:, :1].real
    return means.reshape(spec.shape + powers.zs.shape)


def poisson_modulus_sq(c: np.ndarray, zs) -> np.ndarray:
    """P[|c|^2] at complex points zs of the open disc, for an ascending
    complex coefficient array c, exactly: |c(e^{it})|^2 has the Fourier
    coefficients gamma_m = sum_k c_(k+m) conj(c_k), so its Poisson
    integral is gamma_0 + 2 Re sum_(m>=1) gamma_m z^m."""
    gamma = np.correlate(c, c, "full")[len(c) - 1:]
    return 2.0 * eval_complex(gamma, zs).real - gamma[0].real


def defect_sup(comps, omega: Majorant, xs, nodes: int,
               spectrum: BoundarySpectrum | None = None) -> np.ndarray:
    """sup over the disc points xs of (P[|c|](x) - |c(x)|) / omega(1 - |x|)
    for each row c of comps, a stack of ascending complex coefficient rows
    such as SplitSeries.C, as a (k,) array, from one trapezoid Poisson call
    with the components stacked. xs are the points or their SlicePowers;
    spectrum is the BoundarySpectrum of the rows' moduli at the `nodes`
    angles, taken here when None."""
    def moduli(z):
        return np.stack([np.abs(eval_complex(c, z)) for c in comps])

    p_vals = poisson_integral_slice(on_circle(moduli) if spectrum is None else spectrum,
                                    xs, nodes)
    if isinstance(xs, SlicePowers):
        xs = xs.zs
    defect = p_vals - moduli(xs)
    return np.max(defect / omega(1.0 - np.abs(xs)), axis=-1)


def sq_defect_sup(comps, omega: Majorant, xs) -> np.ndarray:
    """sup over the disc points xs of (P[|c|^2](x) - |c(x)|^2) /
    omega(1 - |x|)^2 for each row c of comps, with the exact Poisson
    integral poisson_modulus_sq, so no node count. |c(x)|^2 is taken as
    re^2 + im^2, the way gamma_0 is formed, so a constant row has defect 0."""
    def modulus_sq(v):
        return v.real ** 2 + v.imag ** 2

    defect = np.stack([poisson_modulus_sq(c, xs) - modulus_sq(eval_complex(c, xs))
                       for c in comps])
    return np.max(defect / omega(1.0 - np.abs(xs)) ** 2, axis=-1)


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

    s = split(f, i)

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
