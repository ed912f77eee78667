"""Moduli of continuity on [0, 2] and their regularity certification.

A majorant omega is admissible for the norm estimators when omega(0) = 0,
omega is increasing and omega(t)/t is non-increasing. It is *regular* when
additionally

    int_0^x omega(t)/t dt  +  x * int_x^2 omega(t)/t^2 dt  <=  C * omega(x)

for a finite C independent of x in (0, 2]. check_regular certifies this
empirically: both integrals are evaluated with the substitution t = e^u
(which removes the endpoint singularity) by composite Gauss-Legendre
panels, and the sup of the ratio must stabilize under grid refinement.
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
        if np.any(arr < -_DOMAIN_SLACK) or np.any(arr > DOMAIN_MAX + _DOMAIN_SLACK):
            raise DomainError(
                f"majorant argument outside [0, {DOMAIN_MAX}]: "
                f"range [{arr.min()!r}, {arr.max()!r}]"
            )
        out = self._eval(np.clip(arr, 0.0, DOMAIN_MAX))
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


class PowerMajorant(Majorant):
    """omega(t) = scale * t^alpha with 0 < alpha <= 1."""

    def __init__(self, alpha: float, scale: float = 1.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"exponent must lie in (0, 1], got {alpha!r}")
        if scale <= 0.0:
            raise ValueError(f"scale must be positive, got {scale!r}")
        self.alpha = float(alpha)
        self.scale = float(scale)

    def _eval(self, t):
        return self.scale * np.power(t, self.alpha)

    def __repr__(self):
        return f"PowerMajorant(alpha={self.alpha}, scale={self.scale})"


class SumMajorant(Majorant):
    def __init__(self, first: Majorant, second: Majorant):
        self.first = first
        self.second = second

    def _eval(self, t):
        return self.first._eval(t) + self.second._eval(t)

    def knots(self):
        return np.union1d(self.first.knots(), self.second.knots())

    def __repr__(self):
        return f"SumMajorant({self.first!r}, {self.second!r})"


class ScaledMajorant(Majorant):
    """c * base. c = 0 is tolerated and yields the degenerate zero function."""

    def __init__(self, c: float, base: Majorant):
        if c < 0.0:
            raise ValueError(f"scale must be nonnegative, got {c!r}")
        self.c = float(c)
        self.base = base

    def _eval(self, t):
        return self.c * self.base._eval(t)

    def knots(self):
        return self.base.knots()

    def __repr__(self):
        return f"ScaledMajorant({self.c}, {self.base!r})"


class TabulatedMajorant(Majorant):
    """Piecewise-linear interpolant through (grid, values) with grid[0] = 0,
    values[0] = 0. Monotonicity is checked by check_regular, not here, so
    that inadmissible tables can be constructed and then rejected."""

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

    Rows sharing a panel layout (the pieces of each sub-interval between
    breaks; 0 for a break outside the interval) are summed as one array.
    """
    edges = np.column_stack([a, np.clip(breaks, a[:, None], b[:, None]), b])
    lengths = np.diff(edges, axis=1)
    pieces = np.where(lengths > 0.0, np.ceil(lengths / max_width[:, None]), 0.0).astype(int)
    layouts, group = np.unique(pieces, axis=0, return_inverse=True)
    sums = np.empty(a.size)
    for g, layout in enumerate(layouts):
        rows = np.flatnonzero(group.ravel() == g)
        ends = edges[rows]
        lo, hi = np.empty((2, rows.size, layout.sum()))
        first = np.cumsum(layout) - layout  # first panel of each sub-interval
        for p in np.unique(layout[layout > 0]):
            s = np.flatnonzero(layout == p)
            sub = np.linspace(ends[:, s], ends[:, s + 1], p + 1, axis=-1)
            cols = first[s, None] + np.arange(p)
            lo[:, cols], hi[:, cols] = sub[..., :-1], sub[..., 1:]
        half = (0.5 * (hi - lo))[..., None]
        mid = (0.5 * (hi + lo))[..., None]
        # nodes in panel order, one contiguous row per x: the row sum is the
        # same pairwise sum, to the bit, as the sum for that x alone
        nodes = (mid + half * _GL_X).reshape(rows.size, -1)
        sums[rows] = np.sum(integrand(nodes, (half * _GL_W).reshape(rows.size, -1)), axis=1)
    return sums


def _singular_integrals(omega: Majorant, x: np.ndarray, panels: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """I1 = int_0^x omega/t dt and I2 = int_x^2 omega/t^2 dt via t = e^u,
    for every x at once."""
    log_knots = np.log(np.maximum(omega.knots(), 1e-300))
    # 50 log-units below x truncates the lower tail of I1 by a factor e^-50
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
    """Certify the integral regularity condition empirically on a 40-point
    log grid on [1e-4, 2). Refinement extends the grid two times, each round
    pushing x_min down by 100x and doubling the density.

    Parameters
    ----------
    omega : Majorant
    quad_nodes : quadrature panels per integral (Gauss-Legendre, 8 points
        per panel, panels split at any tabulated knots).

    The certificate reports the largest observed ratio, where it occurred,
    and whether the maxima stabilized (successive ratio < 1.05 over two
    refinements). Monotonicity failures reject immediately.
    """
    if quad_nodes < 4:  # fewer panels make the doubling check vacuous
        raise ValueError(f"need at least 4 quadrature panels, got {quad_nodes}")
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


def _linear_combination(c1: float, w1: Majorant, c2: float, w2: Majorant) -> Majorant:
    terms = [(c, w) for c, w in ((c1, w1), (c2, w2)) if c > 0.0]
    if not terms:
        return ScaledMajorant(0.0, w1)
    if len(terms) == 1:
        c, w = terms[0]
        return w if c == 1.0 else ScaledMajorant(c, w)
    return SumMajorant(ScaledMajorant(terms[0][0], terms[0][1]),
                       ScaledMajorant(terms[1][0], terms[1][1]))


def combine(a1_norm: float, a2_norm: float, omega1: Majorant,
            omega2: Majorant) -> tuple[Majorant, Majorant]:
    """Majorant pair governing the components of f * a when the components
    of f obey (omega1, omega2) and a splits into (a1, a2):

        (|a1| omega1 + |a2| omega2,  |a2| omega1 + |a1| omega2).

    Zero weights are dropped so degenerate factors stay representable.
    """
    if a1_norm < 0.0 or a2_norm < 0.0:
        raise ValueError("component norms must be nonnegative")
    first = _linear_combination(a1_norm, omega1, a2_norm, omega2)
    second = _linear_combination(a2_norm, omega1, a1_norm, omega2)
    return first, second


def squared(omega: Majorant) -> Majorant:
    """omega^2 as a majorant value: exact for powers (alpha doubles), a dense
    tabulation otherwise. The result may fail regularity; callers certify."""
    if isinstance(omega, PowerMajorant):
        if omega.alpha <= 0.5:
            return PowerMajorant(2.0 * omega.alpha, omega.scale ** 2)
    grid = np.concatenate([[0.0], np.geomspace(1e-8, DOMAIN_MAX, 512)])
    vals = np.concatenate([[0.0], np.asarray(omega(grid[1:]), dtype=float) ** 2])
    return TabulatedMajorant(grid, vals)
