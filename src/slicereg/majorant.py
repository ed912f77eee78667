"""Moduli of continuity on [0, 2] and their regularity certification.

A majorant omega is admissible when omega(0) = 0, omega increases and
omega(t)/t does not. It is *regular* (the Bari-Stechkin condition) when for
a finite C and every x in (0, 2]

    N(x) = int_0^x omega(t)/t dt  +  x * int_x^2 omega(t)/t^2 dt  <=  C * omega(x).

Every weight built here is a positive sum of powers c t^alpha and
piecewise-linear tables, so both integrals have closed forms: check_regular
decides the screens exactly and brackets C = sup N/omega within RTOL, and a
power t^alpha has C = 1/alpha + 1/(1 - alpha), its x -> 0 limit.

Powers, sums and scalings are frozen dataclasses, so equal weights are
equal values with equal hashes and can key a store; c * t^alpha has the
one form ScaledMajorant(c, PowerMajorant(alpha)). A TabulatedMajorant holds
arrays and compares by identity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

DOMAIN_MAX = 2.0  # diameter of the unit ball; distances never exceed it
_DOMAIN_SLACK = 1e-12
RTOL = 1e-6  # a certified C_upper is at most C_lower * (1 + RTOL)
# the screens forgive 8 ulps of the magnitudes summed into each value
_SCREEN_TOL = 8.0 * np.finfo(float).eps
_DEPTH = 2e4  # the tail grid reaches e^-20000 times the first knot
_DIVERGENT_X = 1e-8  # where the ratio of a divergent weight is reported


class DomainError(ValueError):
    """Majorant evaluated outside [0, 2]."""


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

    def __repr__(self):
        return f"TabulatedMajorant(<{self.grid.size} knots>)"


@dataclass(frozen=True)
class RegularityCertificate:
    """Verdict of check_regular. If regular, C_lower <= sup R <= C_upper =
    empirical_C <= C_lower (1 + RTOL), unless R rises below e^-20000 times the
    first knot (a smallest exponent within about 1e-3 of 1), and R reaches
    C_lower at worst_x (0.0: the x -> 0 limit). If divergent, empirical_C =
    C_lower = R(1e-8) = R(worst_x), C_upper = inf. A failed screen leaves NaN
    constants and worst_x at the first piece end where it fails."""

    is_regular: bool
    empirical_C: float
    C_lower: float
    C_upper: float
    worst_x: float
    monotone: bool
    ratio_monotone: bool


class _Pieces:
    """omega = sum c t^alpha + A[j] + B[j] t on (knots[j], knots[j + 1]], the
    powers merged by exponent and sorted, the knots 0, each table knot in
    (0, 2) and 2; A[0] = 0 as tables start at the origin. A_mag and B_mag
    sum the magnitudes rounded into A and B; I1_left[j] and I2_right[j] are
    the tables' parts of I1 at knots[j] and of I2 at knots[j + 1]."""

    def __init__(self, omega: Majorant):
        powers: dict[float, float] = {}
        tables, stack = [], [(1.0, omega)]
        while stack:  # omega as a positive sum; a zero scale drops its term
            c, w = stack.pop()
            if isinstance(w, SumMajorant):
                stack += [(c, w.second), (c, w.first)]
            elif isinstance(w, ScaledMajorant) and w.c > 0.0:
                stack.append((c * w.c, w.base))
            elif isinstance(w, PowerMajorant):
                powers[w.alpha] = powers.get(w.alpha, 0.0) + c
            elif isinstance(w, TabulatedMajorant):
                tables.append((c, w))
            elif not isinstance(w, ScaledMajorant):
                raise TypeError(f"no closed form for {type(w).__name__}")
        self.alpha = np.array([a for a in sorted(powers) if powers[a] > 0.0])
        self.c = np.array([powers[a] for a in self.alpha])
        self.knots = np.unique(np.concatenate(
            [[0.0, DOMAIN_MAX], *(t.grid[(t.grid > 0.0) & (t.grid < DOMAIN_MAX)]
                                  for _, t in tables)]))
        lo, hi = self.knots[:-1], self.knots[1:]
        self.A, self.B, self.A_mag, self.B_mag = np.zeros((4, lo.size))
        for s, t in tables:
            k = np.searchsorted(t.grid, 0.5 * (lo + hi)) - 1  # no midpoint is a knot
            b = np.append(np.diff(t.values) / np.diff(t.grid), 0.0)[k]  # flat past the end
            self.A += s * (t.values[k] - b * t.grid[k])
            self.B += s * b
            self.A_mag += s * (t.values[k] + np.abs(b) * t.grid[k])
            self.B_mag += s * np.abs(b)
        log_ratio = np.log(hi[1:] / lo[1:])
        p1 = np.concatenate([self.B[:1] * hi[:1],
                             self.A[1:] * log_ratio + self.B[1:] * (hi[1:] - lo[1:])])
        p2 = np.concatenate([[0.0], self.A[1:] * (1.0 / lo[1:] - 1.0 / hi[1:])
                             + self.B[1:] * log_ratio])
        self.I1_left = np.cumsum(p1) - p1
        self.I2_right = np.cumsum(p2[::-1])[::-1] - p2
        self.log_knots = np.concatenate([[-np.inf], np.log(hi)])
        self.m = self.alpha[0] if self.alpha.size else 1.0

    def scaled(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """I1(x) = int_0^x omega/t, x I2(x) = x int_x^2 omega/t^2 and omega(x)
        at x = e^s in (0, 2], each divided by x^m, m the smallest exponent
        (1 without powers): finite also for x far below the smallest double."""
        a, c = self.alpha[:, None], self.c[:, None]
        log_2x = np.log(DOMAIN_MAX) - s
        # x int_x^2 t^(alpha-2) = x^alpha ln(2/x) (1 - e^-z)/z, z = (1-alpha) ln(2/x),
        # and (1 - e^-z)/z = 1 at z = 0: no cancellation as alpha -> 1
        z = (1.0 - a) * log_2x
        rel = np.where(z > 0.0, -np.expm1(-z) / np.where(z > 0.0, z, 1.0), 1.0)
        power = c * np.exp((a - self.m) * s)
        # the tables' parts over x; on the first piece A = 0 and x is never formed
        j = np.clip(np.searchsorted(self.log_knots, s) - 1, 0, self.A.size - 1)
        later = j > 0
        A, B, lo = self.A[j], self.B[j], self.knots[j]
        inv_x = np.exp(-np.where(later, s, 0.0))
        log_lo = np.where(later, self.log_knots[j], s)
        u1 = np.where(later, (self.I1_left[j] + A * (s - log_lo) + B * (np.exp(s) - lo)) * inv_x,
                      B)
        u2 = self.I2_right[j] + A * (inv_x - 1.0 / self.knots[j + 1]) + B * (
            self.log_knots[j + 1] - s)
        linear = np.exp((1.0 - self.m) * s)
        return ((power / a).sum(0) + linear * u1, (power * log_2x * rel).sum(0) + linear * u2,
                power.sum(0) + linear * (A * inv_x + B))

    def screens(self) -> tuple[bool, bool, float]:
        """Whether omega increases, whether omega/t does not, and the first
        piece end where one fails (NaN if none). On a piece omega' = sum c
        alpha t^(alpha-1) + B falls and omega - t omega' = sum c (1 - alpha)
        t^alpha + A rises, so each is held >= 0 at its worst end."""
        lo, hi = self.knots[:-1], self.knots[1:]
        a, c = self.alpha[:, None], self.c[:, None]
        slope = (c * a * hi ** (a - 1.0)).sum(0)
        defect = (c * (1.0 - a) * lo ** a).sum(0)
        up, flat = (np.isfinite(v) & (v >= -_SCREEN_TOL * mag) for v, mag in (
            (slope + self.B, slope + self.B_mag), (defect + self.A, defect + self.A_mag)))
        bad = np.concatenate([hi[~up], lo[~flat]])
        return bool(up.all()), bool(flat.all()), float(bad.min()) if bad.size else math.nan

    def tail_bound(self, log_x: np.ndarray) -> np.ndarray:
        """Upper bounds of R on (0, x], x = e^log_x <= knots[1], by the
        expansion about the smallest exponent a_m < 1: there omega = Q + L t,
        Q the powers alpha < 1, and N - K_m omega = sum c (K - K_m) t^alpha +
        L t (lam + ln(k1/t)), K = 1/alpha + 1/(1 - alpha), lam = 1 - K_m + D/L
        (D t if L = 0). Over omega, a power's term is at most its share of the
        powers up to its exponent, rising with t, as t/Q does; t^(1-a_m) (lam
        + ln(k1/t)) peaks at k1 e^(lam - 1/(1-a_m)), and t^a_m/Q <= 1/c_m."""
        regular = self.alpha < 1.0
        a, c = self.alpha[regular], self.c[regular]
        K = 1.0 / a + 1.0 / (1.0 - a)
        k1, L = self.knots[1], self.c[~regular].sum() + self.B[0]
        D = (self.I2_right[0] + self.c[~regular].sum() * np.log(DOMAIN_MAX / k1)
             - (c * DOMAIN_MAX ** (a - 1.0) / (1.0 - a)).sum())
        log_k1 = self.log_knots[1]
        share = (c / c[0])[:, None] * np.exp(np.outer(a - a[0], log_x))
        bound = K[0] + (np.maximum(K - K[0], 0.0)[:, None] * share
                        / np.cumsum(share, axis=0)).sum(0)
        beta = 1.0 - a[0]
        if L > 0.0:
            lam = 1.0 - K[0] + D / L
            log_t = np.minimum(log_x, log_k1 + lam - 1.0 / beta)
            return bound + L / c[0] * np.exp(beta * log_t) * (lam + log_k1 - log_t)
        return bound + max(D, 0.0) / c[0] * np.exp(beta * log_x) / share.sum(0)


def _bracket(p: _Pieces) -> tuple[float, float, float]:
    """(C_lower, C_upper, x attaining C_lower or 0.0, also below the smallest
    double) for a screened weight with a power alpha < 1. C_lower starts at
    the x -> 0 limit K_m and takes R at every cell end. tail_bound covers
    (0, x0], x0 the largest x of a log grid down to e^-_DEPTH below the first
    knot where it is within RTOL/2 of max(K_m, R(x0)), else the grid's end;
    [x0, 2] is cut into cells of at most an e-fold inside pieces. On a cell
    [a, b], N (N' = I2, N'' = -omega/x^2) and omega are concave, so R <=
    min(tangents of N at a, b) / chord of omega, largest at a, b or where the
    tangents cross, taken in y = x/a with values over a^m. Cells above
    C_lower (1 + RTOL) are halved in log x; the gap falls as width squared."""
    lower, worst = power_regularity_constant(float(p.m)), 0.0

    def sample(s):
        nonlocal lower, worst
        i1, xi2, w = p.scaled(s)
        v = np.stack([s, i1 + xi2, xi2, w])
        k = int(np.argmax(r := v[1] / v[3]))
        if r[k] > lower:
            lower, worst = float(r[k]), math.exp(s[k])
        return v

    depth = np.concatenate([np.geomspace(_DEPTH, 64.0, 128)[:-1], np.arange(64.0, -1.0, -1.0)])
    log_x = p.log_knots[1] - depth
    i1, xi2, w = p.scaled(log_x)
    tail = p.tail_bound(log_x)
    ok = np.flatnonzero(tail <= np.maximum(lower, (i1 + xi2) / w) * (1.0 + 0.5 * RTOL))
    i0 = ok[-1] if ok.size else 0
    s0, upper = log_x[i0], float(tail[i0])
    cuts = [np.linspace(max(lo, s0), hi, 2 + int(hi - max(lo, s0)))
            for lo, hi in zip(p.log_knots[:-1], p.log_knots[1:]) if hi > s0]
    if not cuts:  # the tail bound covers (0, 2]
        return lower, max(upper, lower), worst
    va = sample(np.concatenate([cut[:-1] for cut in cuts]))
    vb = sample(np.concatenate([cut[1:] for cut in cuts]))
    for _ in range(40):  # a cell halved 40 times is still 1e-12 e-folds wide
        (_, na, ia, wa), (_, nb, ib, wb), r = va, vb, np.exp(vb[0] - va[0])
        nb, ib, wb = nb * r ** p.m, ib * r ** (p.m - 1.0), wb * r ** p.m  # in y, over a^m
        cross = np.clip((nb - na + ia - ib * r) / (ia - ib), 1.0, r)
        chord = wa + (wb - wa) * ((cross - 1.0) / (r - 1.0))
        bound = np.maximum(np.maximum(na / wa, nb / wb), (na + ia * (cross - 1.0)) / chord)
        live = ~(bound <= lower * (1.0 + RTOL))  # a NaN bound stays live
        upper = max(upper, float(bound[~live].max(initial=-math.inf)))
        if not live.any():
            break
        va, vb = va[:, live], vb[:, live]
        vm = sample(0.5 * (va[0] + vb[0]))
        va, vb = np.concatenate([va, vm], axis=1), np.concatenate([vm, vb], axis=1)
    else:
        upper = max(upper, float(np.nan_to_num(bound[live], nan=math.inf).max()))
    return lower, max(upper, lower), worst


def check_regular(omega: Majorant) -> RegularityCertificate:
    """Certify the integral regularity condition. A power t^alpha, 0 < alpha
    < 1, under any positive scales gets power_regularity_constant(alpha): R
    is scale-free and rises to it as x -> 0. Other weights are split into
    _Pieces, rejected by a failed screen or for lacking a power alpha < 1
    (then omega ~ t near 0 and R grows like ln(1/x)), else bracketed."""
    _, base = _scale_chain(omega)
    if isinstance(base, PowerMajorant) and base.alpha < 1.0:
        c = power_regularity_constant(base.alpha)
        return RegularityCertificate(bool(np.isfinite(c)), c, c, c, 0.0, True, True)
    with np.errstate(invalid="ignore", over="ignore"):  # an overflowing scale fails a screen
        p = _Pieces(base)
        increasing, ratio_dec, bad_x = p.screens()
    if not (increasing and ratio_dec):
        return RegularityCertificate(False, *[math.nan] * 3, bad_x, increasing, ratio_dec)
    if p.m == 1.0:
        i1, xi2, w = p.scaled(np.log([_DIVERGENT_X]))
        r = float((i1[0] + xi2[0]) / w[0]) if w[0] > 0.0 else math.inf
        return RegularityCertificate(False, r, r, math.inf, _DIVERGENT_X, True, True)
    lower, upper, worst = _bracket(p)
    return RegularityCertificate(bool(np.isfinite(upper)), upper, lower, upper, worst, True, True)


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
    """omega^2 as a majorant value: exact for a power with alpha <= 1/2 under
    positive scales (alpha doubles, each scale is squared) and for a positive
    sum of such powers (the sum of c_i c_j t^(alpha_i + alpha_j)), a dense
    tabulation otherwise. The result may fail regularity; callers certify."""
    factors, base = _scale_chain(omega)
    if isinstance(base, PowerMajorant) and base.alpha <= 0.5:
        out = PowerMajorant(2.0 * base.alpha)
        for c in reversed(factors):
            out = c ** 2 * out
        return out
    p = _Pieces(omega)
    if p.alpha.size and p.alpha[-1] <= 0.5 and not (p.A.any() or p.B.any()):  # no table
        a, c = p.alpha.tolist(), p.c.tolist()
        return reduce(operator.add, ((1.0 if i == j else 2.0) * c[i] * c[j] * PowerMajorant(
            a[i] + a[j]) for i in range(len(a)) for j in range(i, len(a))))
    grid = np.concatenate([[0.0], np.geomspace(1e-8, DOMAIN_MAX, 512)])
    vals = np.concatenate([[0.0], np.asarray(omega(grid[1:]), dtype=float) ** 2])
    return TabulatedMajorant(grid, vals)
