"""Moduli of continuity on [0, 2] and their regularity certification.

A majorant omega is admissible for the norm estimators when omega(0) = 0,
omega is increasing and omega(t)/t is non-increasing. It is *regular* when
additionally

    int_0^x omega(t)/t dt  +  x * int_x^2 omega(t)/t^2 dt  <=  C * omega(x)

for a finite C independent of x in (0, 2]. check_regular certifies a power
t^alpha with 0 < alpha < 1, plain or under any chain of positive scales,
by its closed-form constant C = 1/alpha + 1/(1 - alpha). Every other weight
is certified empirically: both integrals are evaluated with the
substitution t = e^u (which removes the endpoint singularity) by composite
Gauss-Legendre panels, and the sup of the ratio must stabilize under grid
refinement.
That sup is a lower bound for C: the grid stops at x = 1e-8 and I1 is cut
50 log-units below x.

Powers, sums and scalings are frozen dataclasses, so equal weights are
equal values with equal hashes and can key a store; c * t^alpha has the
one form ScaledMajorant(c, PowerMajorant(alpha)). A TabulatedMajorant holds
arrays and compares by identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DOMAIN_MAX = 2.0  # diameter of the unit ball; distances never exceed it
_DOMAIN_SLACK = 1e-12


class DomainError(ValueError):
    """Majorant evaluated outside [0, 2]."""


class QuadratureFailure(RuntimeError):
    """The certification quadrature did not converge under refinement."""


class Majorant:
    """Base class; concrete kinds implement _eval on positive float arrays."""

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        # one scan, NaN failing both tests
        if ((arr < -_DOMAIN_SLACK) | (arr > DOMAIN_MAX + _DOMAIN_SLACK)).any():
            raise DomainError(
                f"majorant argument outside [0, {DOMAIN_MAX}]: "
                f"range [{arr.min()!r}, {arr.max()!r}]"
            )
        out = self._eval(np.minimum(np.maximum(0.0, arr), DOMAIN_MAX))
        if np.ndim(t) == 0:
            return float(out)
        return out

    def _eval(self, t: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __add__(self, other: "Majorant") -> "Majorant":
        return SumMajorant(self, other)

    def __rmul__(self, c: float) -> "Majorant":
        return ScaledMajorant(float(c), self)

    def knots(self) -> np.ndarray:
        """Interior break points (used to align quadrature panels)."""
        return np.empty(0)


@dataclass(frozen=True)
class PowerMajorant(Majorant):
    """omega(t) = t^alpha with 0 < alpha <= 1; a scaled power c * t^alpha
    is ScaledMajorant(c, PowerMajorant(alpha))."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"exponent must lie in (0, 1], got {self.alpha!r}")

    def _eval(self, t):
        return np.power(t, self.alpha)


@dataclass(frozen=True)
class SumMajorant(Majorant):
    first: Majorant
    second: Majorant

    def _eval(self, t):
        return self.first._eval(t) + self.second._eval(t)

    def knots(self):
        return np.union1d(self.first.knots(), self.second.knots())


@dataclass(frozen=True)
class ScaledMajorant(Majorant):
    """c * base. c = 0 is tolerated and yields the degenerate zero function."""

    c: float
    base: Majorant

    def __post_init__(self):
        if self.c < 0.0:
            raise ValueError(f"scale must be nonnegative, got {self.c!r}")

    def _eval(self, t):
        return self.c * self.base._eval(t)

    def knots(self):
        return self.base.knots()


class TabulatedMajorant(Majorant):
    """Piecewise-linear interpolant through (grid, values) with grid[0] = 0,
    values[0] = 0. Monotonicity is checked by check_regular, not here, so
    that inadmissible tables can be constructed and then rejected. Equality
    is identity."""

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise ValueError("grid and values must be 1-d arrays of equal length >= 2")
        if grid[0] != 0.0 or values[0] != 0.0:
            raise ValueError("table must start at (0, 0)")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if grid[-1] > DOMAIN_MAX + _DOMAIN_SLACK:
            raise ValueError(f"grid exceeds the domain [0, {DOMAIN_MAX}]")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("values must be finite and nonnegative")
        self.grid = grid
        self.values = values

    def _eval(self, t):
        # beyond the last knot, continue with the final value (flat)
        return np.interp(t, self.grid, self.values)

    def knots(self):
        return self.grid[1:-1]

    def __repr__(self):
        return f"TabulatedMajorant(<{self.grid.size} knots>)"


@dataclass(frozen=True)
class RegularityCertificate:
    """Verdict of check_regular. empirical_C is the certified constant and
    history[-1] equals it. A quadrature certificate's history holds the
    ratio sup of each grid refinement, worst_x the x attaining the last
    one and grid_size the last grid's length. A closed-form certificate
    (a plain or positively scaled power) has history (C,), worst_x 0.0,
    the x -> 0 limit where the sup is approached but never attained, and
    grid_size 0, as it samples no grid."""

    is_regular: bool
    empirical_C: float
    worst_x: float
    grid_size: int
    monotone: bool
    ratio_monotone: bool
    history: tuple[float, ...]


# 8-point Gauss-Legendre rule on [-1, 1], shared by every panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def _gauss_sums(integrand, a: np.ndarray, b: np.ndarray, breaks: np.ndarray,
                max_width: np.ndarray) -> np.ndarray:
    """Composite Gauss-Legendre sums of integrand(nodes, weights) over
    [a[k], b[k]] for every k at once, panels split at the breaks inside the
    interval and capped at max_width[k] so piecewise-smooth integrands stay
    panel-smooth.

    All panels are built as one flat array and the integrand is called once
    over it; rows sharing a total panel count are summed as one array.
    """
    edges = np.column_stack([a, np.clip(breaks, a[:, None], b[:, None]), b])
    lengths = np.diff(edges, axis=1)
    pieces = np.where(lengths > 0.0, np.ceil(lengths / max_width[:, None]), 0.0).astype(int)
    totals = pieces.sum(axis=1)
    order = np.argsort(totals, kind="stable")  # each count's panels form one block
    row, sub = np.nonzero(pieces[order])
    start, stop, p = edges[order[row], sub], edges[order[row], sub + 1], pieces[order[row], sub]
    # panel k of p runs from k * step + start to (k + 1) * step + start, the
    # last one to exactly stop: the same bits as numpy's linspace
    k = (np.arange(p.sum()) - np.repeat(np.cumsum(p) - p, p))[:, None]
    step, start, stop, p = (np.repeat(v, p)[:, None] for v in ((stop - start) / p, start, stop, p))
    lo, hi = k * step + start, np.where(k + 1 == p, stop, (k + 1) * step + start)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    vals = integrand(mid + half * _GL_X, half * _GL_W)
    sums, f, g = np.empty(a.size), 0, 0
    for n, r in zip(*np.unique(totals, return_counts=True)):
        # contiguous rows in panel order: each row sums as its x alone would
        sums[order[g:g + r]] = np.sum(vals[f:f + n * r].reshape(r, -1), axis=1)
        f, g = f + n * r, g + r
    return sums


def _singular_integrals(omega: Majorant, x: np.ndarray, panels: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """I1 = int_0^x omega/t dt and I2 = int_x^2 omega/t^2 dt via t = e^u,
    for every x at once."""
    log_knots = np.log(np.maximum(omega.knots(), 1e-300))
    # I1 stops 50 log-units below x: for omega ~ t^alpha near 0 the dropped
    # tail is a share e^(-50 alpha) of I1 (0.61 at alpha = 0.01), so the
    # ratio, and with it the quadrature C, is a lower bound
    u_lo, u_hi = np.log(x) - 50.0, np.log(x)
    i1 = _gauss_sums(lambda u, w: w * omega._eval(np.exp(u)),
                     u_lo, u_hi, log_knots, (u_hi - u_lo) / panels)
    v_hi = np.full_like(x, np.log(DOMAIN_MAX))
    inner = v_hi > u_hi  # x = 2 leaves nothing to integrate
    i2 = np.zeros_like(x)
    i2[inner] = _gauss_sums(lambda v, w: w * omega._eval(np.exp(v)) * np.exp(-v),
                            u_hi[inner], v_hi[inner], log_knots,
                            np.maximum((v_hi[inner] - u_hi[inner]) / panels, 1e-6))
    return i1, i2


def _ratio_max(omega: Majorant, xs: np.ndarray, panels: int) -> tuple[float, float]:
    """Largest ratio over xs and the first x attaining it; (inf, x) at the
    first x where omega vanishes. NaN ratios are ignored."""
    wx = omega(xs)
    if np.any(wx <= 0.0):
        return np.inf, float(xs[np.argmax(wx <= 0.0)])
    i1, i2 = _singular_integrals(omega, xs, panels)
    ratio = (i1 + xs * i2) / wx
    ratio[np.isnan(ratio)] = -np.inf
    k = int(np.argmax(ratio))
    return ratio[k], float(xs[k])


def _monotonicity(omega: Majorant, x_min: float) -> tuple[bool, bool]:
    ts = np.unique(np.concatenate([
        np.geomspace(x_min, DOMAIN_MAX, 512),
        np.linspace(x_min, DOMAIN_MAX, 257),
        omega.knots(),
    ]))
    ts = ts[(ts > 0) & (ts <= DOMAIN_MAX)]
    vals = omega(ts)
    scale = max(float(vals.max()), 1e-300)
    increasing = bool(np.all(np.diff(vals) >= -1e-10 * scale))
    quotients = vals / ts
    ratio_dec = bool(np.all(np.diff(quotients) <= 1e-10 * quotients[:-1] + 1e-300))
    return increasing, ratio_dec


def check_regular(omega: Majorant, quad_nodes: int = 64) -> RegularityCertificate:
    """Certify the integral regularity condition.

    A power t^alpha with 0 < alpha < 1, plain or under any chain of positive
    scales, is certified by power_regularity_constant(alpha): the ratio is
    scale-invariant, both monotonicity screens hold for t^alpha, and no
    quadrature runs. Every other weight goes through the Gauss-Legendre
    quadrature of _quadrature_certificate, whose C is a lower bound.

    Parameters
    ----------
    omega : Majorant
    quad_nodes : quadrature panels per integral (Gauss-Legendre, 8 points
        per panel, panels split at any tabulated knots); at least 4 for
        every weight, though a closed-form certificate uses none.
    """
    if quad_nodes < 4:  # fewer panels make the doubling check vacuous
        raise ValueError(f"need at least 4 quadrature panels, got {quad_nodes}")
    _, base = _scale_chain(omega)
    if isinstance(base, PowerMajorant) and base.alpha < 1.0:
        c = power_regularity_constant(base.alpha)
        return RegularityCertificate(
            is_regular=bool(np.isfinite(c)),
            empirical_C=c,
            worst_x=0.0,
            grid_size=0,
            monotone=True,
            ratio_monotone=True,
            history=(c,),
        )
    return _quadrature_certificate(omega, quad_nodes)


def _quadrature_certificate(omega: Majorant, quad_nodes: int) -> RegularityCertificate:
    """Certify the regularity condition empirically on a 40-point log grid
    on [1e-4, 2). Refinement extends the grid two times, each round pushing
    x_min down by 100x and doubling the density.

    The certificate reports the largest observed ratio, where it occurred,
    and whether the maxima stabilized (successive ratio < 1.05 over two
    refinements). Monotonicity failures reject immediately. The ratio is
    sampled no lower than x = 1e-8 and I1 is truncated, so for a weight
    whose sup is its x -> 0 limit, such as t^alpha, the reported C falls
    short of the true constant.
    """
    grid = np.geomspace(1e-4, DOMAIN_MAX * (1.0 - 1e-9), 40)
    x_min = float(grid[0])
    increasing, ratio_dec = _monotonicity(omega, min(x_min, 1e-6))
    if not (increasing and ratio_dec):
        # already rejected; the integral sup is left uncomputed
        return RegularityCertificate(
            is_regular=False,
            empirical_C=float("nan"),
            worst_x=x_min,
            grid_size=int(grid.size),
            monotone=increasing,
            ratio_monotone=ratio_dec,
            history=(),
        )

    history: list[float] = []
    for refinement in range(3):
        # convergence control: the same sup with doubled panel count
        m, wx = _ratio_max(omega, grid, quad_nodes)
        if np.isfinite(m):
            m2, _ = _ratio_max(omega, grid, 2 * quad_nodes)
            denom = max(abs(m), 1e-300)
            if abs(m2 - m) / denom > 1e-6:
                raise QuadratureFailure(
                    f"ratio sup moved by {abs(m2 - m) / denom!r} under panel doubling"
                )
            m = m2
        history.append(float(m))
        worst_x = wx
        if refinement < 2:
            x_min = x_min * 1e-2
            grid = np.geomspace(x_min, float(grid.max()), grid.size * 2)

    stable = all(
        np.isfinite(history[k + 1])
        and history[k + 1] <= history[k] * 1.05 + 1e-12
        for k in range(len(history) - 1)
    )
    monotone_ok = increasing and ratio_dec
    return RegularityCertificate(
        is_regular=bool(monotone_ok and stable and np.isfinite(history[-1])),
        empirical_C=float(history[-1]),
        worst_x=float(worst_x),
        grid_size=int(grid.size),
        monotone=increasing,
        ratio_monotone=ratio_dec,
        history=tuple(history),
    )


def power_regularity_constant(alpha: float) -> float:
    """Closed-form sup of the regularity ratio for omega = t^alpha, alpha < 1:
    the x -> 0 limit 1/alpha + 1/(1-alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("closed form requires 0 < alpha < 1")
    return 1.0 / alpha + 1.0 / (1.0 - alpha)


def combine(a1_norm: float, a2_norm: float, omega1: Majorant,
            omega2: Majorant) -> tuple[Majorant, Majorant]:
    """Majorant pair governing the components of f * a when the components
    of f obey (omega1, omega2) and a splits into (a1, a2):

        (|a1| omega1 + |a2| omega2,  |a2| omega1 + |a1| omega2).

    A zero factor scales its weight to the zero function, which adds an
    exact 0 on [0, 2].
    """
    if a1_norm < 0.0 or a2_norm < 0.0:
        raise ValueError("component norms must be nonnegative")
    return (a1_norm * omega1 + a2_norm * omega2,
            a2_norm * omega1 + a1_norm * omega2)


def _scale_chain(omega: Majorant) -> tuple[list[float], Majorant]:
    """The positive factors c of the ScaledMajorants wrapping omega,
    outermost first, and the weight under them."""
    factors = []
    while isinstance(omega, ScaledMajorant) and omega.c > 0.0:
        factors.append(omega.c)
        omega = omega.base
    return factors, omega


def squared(omega: Majorant) -> Majorant:
    """omega^2 as a majorant value: exact for a power with alpha <= 1/2
    under positive scales (alpha doubles, each scale is squared), a dense
    tabulation otherwise. The result may fail regularity; callers certify."""
    factors, base = _scale_chain(omega)
    if isinstance(base, PowerMajorant) and base.alpha <= 0.5:
        out = PowerMajorant(2.0 * base.alpha)
        for c in reversed(factors):
            out = c ** 2 * out
        return out
    grid = np.concatenate([[0.0], np.geomspace(1e-8, DOMAIN_MAX, 512)])
    vals = np.concatenate([[0.0], np.asarray(omega(grid[1:]), dtype=float) ** 2])
    return TabulatedMajorant(grid, vals)
