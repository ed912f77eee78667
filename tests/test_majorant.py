import math
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicereg.majorant
from slicereg.majorant import (
    DOMAIN_MAX,
    RTOL,
    DomainError,
    Majorant,
    PowerMajorant,
    ScaledMajorant,
    SumMajorant,
    TabulatedMajorant,
    _Pieces,
    check_regular,
    combine,
    power_regularity_constant,
    squared,
)
from slicereg.cli import RunConfig, parse_majorant

# the weights of the benchmark's cli-mix workload (benchmarks/workloads.py),
# each with its verdict
MIX_WEIGHTS = (
    ("power:0.5", True),
    ("power:0.25+power:0.75", True),
    ("scaled:2.0:power:0.3", True),
    ("power:0.5+tabulated:0,0;0.5,0.2;2,0.5", True),
    ("tabulated:0,0;0.001,0.03;0.01,0.1;0.1,0.3;1,1;2,1.4", False),
    ("power:1", False),
)

_SIX_KNOT_TABLE = TabulatedMajorant([0.0, 0.001, 0.01, 0.1, 1.0, 2.0],
                                    [0.0, 0.03, 0.1, 0.3, 1.0, 1.4])


def test_power_majorant_basics():
    w = PowerMajorant(0.5)
    assert w(0.0) == 0.0
    assert w(0.25) == 0.5
    assert abs(w(2.0) - math.sqrt(2.0)) < 1e-15
    xs = np.array([0.01, 0.04, 1.0])
    assert np.allclose(w(xs), np.sqrt(xs))
    with pytest.raises(DomainError):
        w(-0.1)
    with pytest.raises(DomainError):
        w(2.5)
    with pytest.raises(ValueError):
        PowerMajorant(0.0)
    with pytest.raises(ValueError):
        PowerMajorant(1.5)  # omega(t)/t would increase


_NAN = float("nan")


@pytest.mark.parametrize("t", [
    -1e-11, 2.0 + 1e-11, -np.inf, np.inf, [0.5, 3.0], [_NAN, 3.0], [3.0, _NAN],
    [-1.0, _NAN, 0.5], [[0.1, 0.2], [0.3, -0.2]],
])
def test_majorant_call_rejects_a_number_outside_the_domain(t):
    # a NaN next to an out-of-range number does not hide it
    for w in (PowerMajorant(0.5), _SIX_KNOT_TABLE):
        with pytest.raises(DomainError):
            w(t)


@pytest.mark.parametrize("t", [
    0.0, -0.0, -1e-12, 2.0 + 1e-12, 1.5, _NAN, [_NAN], [-0.0, 0.0, -1e-13, _NAN, 2.0],
    np.geomspace(1e-9, 2.0, 37), [[0.1, -0.0], [2.0, 1e-300]],
])
def test_majorant_call_keeps_the_bits_of_clipped_evaluation(t):
    # the slack band maps as np.clip(t, 0, 2) maps it and NaN passes; adding
    # 0.0 leaves every other bit but makes the sign of a zero, which numpy's
    # minimum/maximum/clip loops do not fix, compare equal
    for w in (PowerMajorant(1.0), PowerMajorant(0.3), _SIX_KNOT_TABLE,
              ScaledMajorant(2.0, PowerMajorant(1.0)) + PowerMajorant(0.5)):
        expected = w._eval(np.clip(np.asarray(t, dtype=float), 0.0, 2.0))
        got = w(t)
        assert np.shape(got) == np.shape(t)
        assert (np.asarray(got) + 0.0).tobytes() == (expected + 0.0).tobytes()


def test_power_majorants_are_equal_by_value():
    w = PowerMajorant(0.5)
    assert w == squared(PowerMajorant(0.25)) and hash(w) == hash(squared(PowerMajorant(0.25)))
    assert w != ScaledMajorant(2.0, w) and w != PowerMajorant(0.25)
    assert w != TabulatedMajorant([0.0, 1.0, 2.0], [0.0, 1.0, w(2.0)])
    assert len({w, PowerMajorant(0.5), PowerMajorant(0.75)}) == 2


def test_scaled_and_sum_weights_are_equal_by_value():
    def scaled(c):
        return ScaledMajorant(c, PowerMajorant(0.5))

    def total():
        return SumMajorant(scaled(2.0), PowerMajorant(0.25))

    assert scaled(2.0) == 2.0 * PowerMajorant(0.5) and hash(scaled(2.0)) == hash(scaled(2.0))
    assert scaled(2.0) != scaled(3.0)
    assert scaled(2.0) != ScaledMajorant(2.0, PowerMajorant(0.25))
    assert total() == scaled(2.0) + PowerMajorant(0.25) and hash(total()) == hash(total())
    assert total() != SumMajorant(PowerMajorant(0.25), scaled(2.0))
    assert len({scaled(2.0), scaled(2.0), total(), total()}) == 2
    # a table compares by identity, and so does every weight built on one
    tab = TabulatedMajorant([0.0, 2.0], [0.0, 1.0])
    assert ScaledMajorant(2.0, tab) == ScaledMajorant(2.0, tab)
    assert ScaledMajorant(2.0, tab) != ScaledMajorant(2.0, TabulatedMajorant([0.0, 2.0],
                                                                             [0.0, 1.0]))


def test_squared_scaled_power_is_exact():
    w = squared(ScaledMajorant(2.0, PowerMajorant(0.25)))
    assert w == ScaledMajorant(4.0, PowerMajorant(0.5))
    assert check_regular(w).empirical_C == 4.0
    # each factor of a chain is squared in place, and the bits are c * t^alpha
    chain = squared(ScaledMajorant(3.0, ScaledMajorant(0.5, PowerMajorant(0.5))))
    assert chain == ScaledMajorant(9.0, ScaledMajorant(0.25, PowerMajorant(1.0)))
    t = np.linspace(0.0, 2.0, 101)
    assert np.array_equal(w(t), 4.0 * np.power(t, 0.5))
    # past alpha = 1/2 the square is no weight t^(2 alpha); it is tabulated
    assert isinstance(squared(ScaledMajorant(2.0, PowerMajorant(0.75))), TabulatedMajorant)


def test_closed_form_regularity_constant():
    # integral constant for t^alpha: 1/alpha + 1/(1-alpha)
    assert abs(power_regularity_constant(0.5) - 4.0) < 1e-12
    assert abs(power_regularity_constant(0.25) - (4.0 + 4.0 / 3.0)) < 1e-12


# check_regular certifies powers by the closed form; the quadrature oracle is
# tested on powers against that closed form
@pytest.fixture(scope="module")
def cert_half():
    return _quadrature_certificate(PowerMajorant(0.5), 64)


def test_power_half_certified_regular(cert_half):
    assert cert_half.is_regular
    assert cert_half.monotone and cert_half.ratio_monotone
    # empirical constant approaches the closed form 4 from below
    assert 3.9 < cert_half.empirical_C <= 4.0 + 1e-6
    assert cert_half.empirical_C == pytest.approx(3.9998585786159864, rel=1e-9)
    # refinement history is increasing toward the sup
    assert cert_half.history[0] < cert_half.history[-1] <= cert_half.empirical_C + 1e-12


def test_power_quarter_and_three_quarters():
    c25 = _quadrature_certificate(PowerMajorant(0.25), 64)
    assert c25.is_regular
    assert c25.empirical_C <= power_regularity_constant(0.25) + 1e-6
    c75 = _quadrature_certificate(PowerMajorant(0.75), 64)
    assert c75.is_regular
    # the grid minimum of the regularity quotient sits below the closed form
    assert c75.empirical_C <= power_regularity_constant(0.75) + 1e-6


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_power_weight_constant_matches_closed_form(alpha):
    # for t^alpha the regularity quotient at x is exactly
    # 1/alpha + (1 - (x/2)^(1-alpha)) / (1 - alpha), decreasing in x, so
    # the certificate's sup sits at the finest grid's x_min = 1e-8 (1e-4
    # pushed down 100x by each of two refinements)
    x_min = 1e-8
    cert = _quadrature_certificate(PowerMajorant(alpha), 64)
    exact = 1.0 / alpha + (1.0 - (x_min / 2.0) ** (1.0 - alpha)) / (1.0 - alpha)
    assert cert.worst_x == pytest.approx(x_min, rel=1e-12)
    assert cert.empirical_C == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9])
def test_quadrature_never_exceeds_closed_form(alpha):
    # the quadrature samples x >= 1e-8 and cuts I1 50 log-units below x, so
    # each refinement's sup is a lower bound (40.4 against 101 at 0.01)
    cert = _quadrature_certificate(PowerMajorant(alpha), 64)
    assert max(cert.history) <= power_regularity_constant(alpha)


@pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.25, 0.5, 0.75, 0.9, 1.0 - 1e-9])
@pytest.mark.parametrize("make", [
    lambda a: PowerMajorant(a),
    lambda a: 3.0 * PowerMajorant(a),
    lambda a: ScaledMajorant(0.5, PowerMajorant(a)),
    lambda a: ScaledMajorant(1e308, ScaledMajorant(1.5, PowerMajorant(a))),
], ids=["plain", "power_scale", "scaled", "scaled_huge"])
def test_check_regular_certifies_powers_by_closed_form(alpha, make, monkeypatch):
    def refuse(*args):
        raise AssertionError("a power weight was decomposed")

    monkeypatch.setattr(slicereg.majorant, "_Pieces", refuse)
    monkeypatch.setattr(slicereg.majorant, "_bracket", refuse)
    c = 1.0 / alpha + 1.0 / (1.0 - alpha)
    cert = check_regular(make(alpha))
    assert cert.empirical_C == power_regularity_constant(alpha) == pytest.approx(c, rel=1e-12)
    assert cert.is_regular and cert.monotone and cert.ratio_monotone
    assert cert.C_lower == cert.C_upper == cert.empirical_C
    assert cert.worst_x == 0.0


def test_closed_form_rejects_an_overflowing_constant(monkeypatch):
    monkeypatch.setattr(slicereg.majorant, "_Pieces", None)  # must not be called
    cert = check_regular(PowerMajorant(1e-320))  # 1/alpha overflows to inf
    assert not cert.is_regular
    assert cert.empirical_C == cert.C_lower == cert.C_upper == math.inf


@pytest.mark.parametrize("omega", [
    PowerMajorant(1.0),
    ScaledMajorant(2.0, PowerMajorant(1.0)),
    ScaledMajorant(0.0, PowerMajorant(0.5)),
    PowerMajorant(0.25) + PowerMajorant(0.75),
    squared(PowerMajorant(0.75)),
    TabulatedMajorant([0.0, 0.001, 0.01, 0.1, 1.0, 2.0], [0.0, 0.03, 0.1, 0.3, 1.0, 1.4]),
], ids=["linear", "scaled_linear", "zero_scale", "sum", "squared_table", "tabulated"])
def test_other_weights_go_through_the_quadrature(omega, monkeypatch):
    # every other weight is decomposed and only a screened one with a power
    # alpha < 1 is bracketed; its verdict and screens are the quadrature
    # oracle's, a bracket lies above the oracle's lower bound, and a
    # divergent weight reads the oracle's ratio at x = 1e-8
    calls = []
    real = slicereg.majorant._bracket

    def spy(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(slicereg.majorant, "_bracket", spy)
    cert = check_regular(omega)
    oracle = _quadrature_certificate(omega, 32)
    assert (cert.is_regular, cert.monotone, cert.ratio_monotone) == (
        oracle.is_regular, oracle.monotone, oracle.ratio_monotone)
    assert len(calls) == int(cert.is_regular)
    if cert.is_regular:
        assert oracle.empirical_C <= cert.C_lower <= cert.C_upper
    elif cert.monotone and cert.ratio_monotone:
        assert (cert.empirical_C, cert.worst_x) == pytest.approx(
            (oracle.empirical_C, oracle.worst_x), rel=1e-9)
        assert cert.C_upper == math.inf


def test_identity_majorant_rejected_with_log_divergence():
    cert = check_regular(PowerMajorant(1.0))
    assert not cert.is_regular and cert.C_upper == math.inf
    # the quotient at x is exactly 1 + ln(2/x), reported at x = 1e-8
    floor = 0.9 * math.log(2.0 / cert.worst_x)
    assert cert.empirical_C >= floor
    assert cert.empirical_C == cert.C_lower == pytest.approx(1.0 + math.log(2e8), rel=1e-14)
    # and it keeps climbing, by ln 1e4 for each 1e4-fold step down in x
    i1, xi2, w = _Pieces(PowerMajorant(1.0)).scaled(np.log([1e-8, 1e-12, 1e-16]))
    assert np.diff((i1 + xi2) / w) == pytest.approx([math.log(1e4)] * 2, rel=1e-12)


def test_quadratic_tabulated_rejected_by_ratio_monotonicity():
    t = np.linspace(0.0, 2.0, 4097)
    quad = TabulatedMajorant(t, t ** 2)
    cert = check_regular(quad)
    assert not cert.is_regular
    assert not cert.ratio_monotone  # omega(t)/t increases


def test_tabulated_matches_power_on_grid():
    t = np.linspace(0.0, 2.0, 2049)
    tab = TabulatedMajorant(t, np.sqrt(t))
    w = PowerMajorant(0.5)
    xs = np.linspace(0.001, 1.999, 57)
    assert np.max(np.abs(tab(xs) - w(xs))) < 1e-3  # linear interpolation error
    with pytest.raises(ValueError):
        TabulatedMajorant(t[1:], np.sqrt(t[1:]))  # must start at the origin
    with pytest.raises(ValueError):
        TabulatedMajorant(t, -np.sqrt(t))


def test_scaled_and_sum_combinators(cert_half):
    w = PowerMajorant(0.5)
    s = ScaledMajorant(2.0, w)
    assert abs(s(0.25) - 1.0) < 1e-15
    scert = _quadrature_certificate(s, 64)
    assert scert.is_regular
    # the regularity quotient is scale-invariant
    assert abs(scert.empirical_C - cert_half.empirical_C) < 1e-9
    assert check_regular(s) == check_regular(w)
    both = SumMajorant(PowerMajorant(0.5), PowerMajorant(0.25))
    cert = check_regular(both)
    assert cert.is_regular
    # the slower-vanishing quarter-power tail dominates the quotient
    assert cert.empirical_C <= power_regularity_constant(0.25) + 1e-6
    assert ScaledMajorant(0.0, w)(1.0) == 0.0  # degenerate zero scale is allowed
    with pytest.raises(ValueError):
        ScaledMajorant(-1.0, w)


def test_squared_majorant():
    w = PowerMajorant(0.5)
    w2 = squared(w)
    xs = np.linspace(0.0, 2.0, 101)
    assert np.max(np.abs(w2(xs) - xs)) < 1e-9
    # omega regular with omega^2 regular as well (alpha = 1/4 case)
    assert check_regular(squared(PowerMajorant(0.25))).is_regular


def test_combine_scales_componentwise():
    w1, w2 = PowerMajorant(0.5), PowerMajorant(0.25)
    m1, m2 = combine(2.0, 0.5, w1, w2)
    # at t=1 both inputs evaluate to 1: the combined bounds are
    # |a1| w1 + |a2| w2 in each component
    assert abs(m1(1.0) - 2.5) < 1e-12
    assert abs(m2(1.0) - 2.5) < 1e-12
    assert m1(0.0) == 0.0
    # a zero factor adds an exact 0: the same bits as the one live term
    t = np.linspace(0.0, 2.0, 101)
    m1, m2 = combine(2.0, 0.0, w1, w2)
    assert np.array_equal(m1(t), 2.0 * w1(t))
    assert np.array_equal(m2(t), 2.0 * w2(t))
    assert not np.any(combine(0.0, 0.0, w1, w2)[0](t))


def test_evaluate_majorant_helper():
    w = PowerMajorant(0.5)
    assert w(0.25) == 0.5
    assert np.allclose(w([0.25, 1.0]), [0.5, 1.0])


# ---------------------------------------------------------------- closed forms

def _integrals(omega, x):
    """I1, I2 and omega at x by the closed forms."""
    p = _Pieces(omega)
    i1, xi2, w = p.scaled(np.log(x))
    scale = x ** p.m
    return i1 * scale, xi2 * scale / x, w * scale


@pytest.mark.parametrize("spec", [spec for spec, _ in MIX_WEIGHTS])
@pytest.mark.parametrize("square", [False, True], ids=["weight", "squared"])
def test_closed_form_integrals_match_the_quadrature(spec, square):
    # to the oracle's truncation: it drops at most a share e^(-50 m) of I1,
    # m the smallest exponent (1 for tables alone)
    omega = squared(parse_majorant(spec)) if square else parse_majorant(spec)
    xs = np.geomspace(1e-8, 2.0, 160)
    i1, i2, w = _integrals(omega, xs)
    q1, q2 = _singular_integrals(omega, xs, 128)
    assert np.all(q1 <= i1 * (1.0 + 1e-12))
    assert np.all(i1 - q1 <= (math.exp(-50.0 * _Pieces(omega).m) + 1e-10) * i1)
    assert q2 == pytest.approx(i2, rel=1e-12, abs=0.0)
    assert w == pytest.approx(omega(xs), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("spec, certified", MIX_WEIGHTS)
def test_mix_weights_keep_their_verdicts_in_a_tight_bracket(spec, certified):
    cert = check_regular(parse_majorant(spec))
    assert cert.is_regular is certified
    if certified:
        assert cert.C_lower <= cert.C_upper <= cert.C_lower * (1.0 + RTOL)
        assert cert.empirical_C == cert.C_upper
    else:
        assert (cert.C_upper, cert.worst_x) == (math.inf, 1e-8)


def test_bracket_holds_the_sup_the_quadrature_undershoots():
    # t^(1/4) + t^(3/4): the sup is the x -> 0 limit 16/3, where the oracle
    # reads 5.333314
    omega = parse_majorant("power:0.25+power:0.75")
    cert = check_regular(omega)
    assert cert.C_lower == cert.C_upper == 16.0 / 3.0 and cert.worst_x == 0.0
    assert _quadrature_certificate(omega, 64).empirical_C < 5.33332
    # an interior sup above the limit 4, near x = 2.8e-4
    omega = parse_majorant("power:0.5+tabulated:0,0;0.5,0.2;2,0.5")
    cert = check_regular(omega)
    assert 2e-4 < cert.worst_x < 4e-4
    xs = np.geomspace(1e-4, 1e-3, 20001)
    i1, i2, w = _integrals(omega, xs)
    ratio = (i1 + xs * i2) / w
    assert cert.C_lower * (1.0 - 1e-9) <= ratio.max() <= cert.C_upper
    assert _quadrature_certificate(omega, 64).empirical_C < cert.C_lower


def test_bracket_widens_but_holds_when_the_ratio_rises_beyond_the_tail_grid():
    # t^0.9999 beside a linear part peaks near x = e^-30474, deeper than the
    # e^-20000 below the first knot that the tail grid reaches: the bracket
    # is wider than RTOL, and still above every ratio
    omega = PowerMajorant(0.9999) + TabulatedMajorant([0.0, 1.0, 2.0], [0.0, 1.0, 1.5])
    cert = check_regular(omega)
    assert cert.is_regular and cert.C_upper > cert.C_lower * (1.0 + RTOL)
    i1, xi2, w = _Pieces(omega).scaled(np.linspace(-1e5, math.log(2.0), 100001))
    assert np.max((i1 + xi2) / w) <= cert.C_upper


def test_screens_are_exact_per_piece():
    # a proportional piece passes the ratio screen within rounding
    assert check_regular(PowerMajorant(0.5) + TabulatedMajorant([0.0, 0.3, 2.0],
                                                                [0.0, 0.3, 2.0])).is_regular
    # omega/t rising by one part in 1e9 past the knot at 1 fails there
    cert = check_regular(TabulatedMajorant([0.0, 1.0, 2.0], [0.0, 1.0, 2.0 + 2e-9]))
    assert (cert.monotone, cert.ratio_monotone, cert.worst_x) == (True, False, 1.0)
    assert math.isnan(cert.empirical_C) and math.isnan(cert.C_upper)
    # omega falling by 1e-12 on the last piece fails at its right end
    cert = check_regular(TabulatedMajorant([0.0, 1.0, 2.0], [0.0, 1.0, 1.0 - 1e-12]))
    assert (cert.monotone, cert.ratio_monotone, cert.worst_x) == (False, True, 2.0)


@st.composite
def _weights(draw):
    """A positive sum of powers and admissible tables, and whether some
    power has alpha < 1. A table's ratio v/g at each knot is the last one
    times at most (1 + u (g - g_last)/g_last) / (g / g_last), u in [0, 0.99],
    so it increases and omega/t does not, with a margin above rounding."""
    exponents = st.one_of(st.floats(0.001, 0.999), st.just(1.0))
    powers = draw(st.lists(st.tuples(st.floats(0.01, 100.0), exponents), max_size=3))
    terms = [c * PowerMajorant(alpha) for c, alpha in powers]
    for _ in range(draw(st.integers(0 if terms else 1, 2))):
        grid = sorted(draw(st.sets(st.integers(1, 2000), min_size=1, max_size=8)))
        grid = [k / 1000.0 for k in grid]
        values = [draw(st.floats(0.01, 100.0)) * grid[0]]
        for lo, hi in zip(grid, grid[1:]):
            values.append(values[-1] * (1.0 + draw(st.floats(0.0, 0.99)) * (hi - lo) / lo))
        terms.append(TabulatedMajorant([0.0, *grid], [0.0, *values]))
    omega = terms[0]
    for term in terms[1:]:
        omega = omega + term
    return omega, any(alpha < 1.0 for _, alpha in powers)


@settings(max_examples=60, deadline=None)
@given(_weights())
def test_bracket_holds_every_sampled_ratio(weight):
    omega, has_power_below_one = weight
    cert = check_regular(omega)
    assert cert.monotone and cert.ratio_monotone
    assert cert.is_regular is has_power_below_one
    if not cert.is_regular:
        assert cert.C_upper == math.inf
        return
    assert cert.C_lower <= cert.C_upper <= cert.C_lower * (1.0 + RTOL)
    s = np.concatenate([np.linspace(-25000.0, -60.0, 2000), np.linspace(-60.0, math.log(2.0), 4000)])
    i1, xi2, w = _Pieces(omega).scaled(s)
    assert np.max((i1 + xi2) / w) <= cert.C_upper * (1.0 + 1e-12)


def test_squared_sum_of_powers_is_exact():
    omega = parse_majorant("power:0.25+power:0.5:2")
    exact = squared(omega)
    assert exact == 1.0 * PowerMajorant(0.5) + 4.0 * PowerMajorant(0.75) + 4.0 * PowerMajorant(1.0)
    # against the 512-knot tabulation it replaces, at the knots
    grid = np.geomspace(1e-8, 2.0, 512)
    table = TabulatedMajorant(np.r_[0.0, grid], np.r_[0.0, omega(grid) ** 2])
    assert exact(grid) == pytest.approx(table(grid), rel=1e-13, abs=0.0)
    cert = check_regular(exact)
    assert cert.is_regular and cert.C_upper <= cert.C_lower * (1.0 + RTOL)
    # a pairwise exponent sum above 1 has no power form: still tabulated
    assert isinstance(squared(parse_majorant("power:0.25+power:0.75")), TabulatedMajorant)


def test_squared_default_small_weight_is_unchanged():
    # the default run squares omega_small = t^(1/4) into the plain power t^(1/2)
    small = RunConfig().omega_small
    assert type(squared(small)) is PowerMajorant and squared(small) == PowerMajorant(0.5)
    t = np.linspace(0.0, 2.0, 101)
    assert np.array_equal(squared(small)(t), np.power(t, 0.5))


# ---------------------------------------------------------------- quadrature oracle
# The composite Gauss-Legendre quadrature that certified every weight but a
# power before the closed forms, kept as the reference they are tested
# against: both integrals with the substitution t = e^u, 8-point panels split
# at the tables' knots. Its grid stops at x = 1e-8 and I1 is cut 50
# log-units below x, a share e^(-50 alpha) of I1 for omega ~ t^alpha near 0,
# so its ratio, and the C of its certificate, are lower bounds.

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


class _QuadratureCertificate(NamedTuple):
    is_regular: bool
    empirical_C: float
    worst_x: float
    grid_size: int
    monotone: bool
    ratio_monotone: bool
    history: tuple


def _knots(omega):
    """The interior knots of the tables in omega, where panels split."""
    if isinstance(omega, SumMajorant):
        return np.union1d(_knots(omega.first), _knots(omega.second))
    if isinstance(omega, ScaledMajorant):
        return _knots(omega.base)
    if isinstance(omega, TabulatedMajorant):
        return omega.grid[1:-1]
    return np.empty(0)


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
    log_knots = np.log(np.maximum(_knots(omega), 1e-300))
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
        _knots(omega),
    ]))
    ts = ts[(ts > 0) & (ts <= DOMAIN_MAX)]
    vals = omega(ts)
    scale = max(float(vals.max()), 1e-300)
    increasing = bool(np.all(np.diff(vals) >= -1e-10 * scale))
    quotients = vals / ts
    ratio_dec = bool(np.all(np.diff(quotients) <= 1e-10 * quotients[:-1] + 1e-300))
    return increasing, ratio_dec


def _quadrature_certificate(omega: Majorant, quad_nodes: int) -> _QuadratureCertificate:
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
        return _QuadratureCertificate(
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
                raise AssertionError(
                    f"ratio sup moved by {abs(m2 - m) / denom!r} under panel doubling")
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
    return _QuadratureCertificate(
        is_regular=bool(monotone_ok and stable and np.isfinite(history[-1])),
        empirical_C=float(history[-1]),
        worst_x=float(worst_x),
        grid_size=int(grid.size),
        monotone=increasing,
        ratio_monotone=ratio_dec,
        history=tuple(history),
    )



def _reference_integrals(omega, x, panels):
    """I1 and I2 of the regularity ratio at one x: composite 8-point
    Gauss-Legendre panels in u = log t, split at the knots."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    log_knots = np.log(np.maximum(_knots(omega), 1e-300))

    def panel_sum(a, b, width, integrand):
        edges = np.array(sorted({a, b, *(float(u) for u in log_knots if a < u < b)}))
        xs, ws = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sub = np.linspace(lo, hi, max(1, int(np.ceil((hi - lo) / width))) + 1)
            for p_lo, p_hi in zip(sub[:-1], sub[1:]):
                half, mid = 0.5 * (p_hi - p_lo), 0.5 * (p_hi + p_lo)
                xs.append(mid + half * gl_x)
                ws.append(half * gl_w)
        u, w = np.concatenate(xs), np.concatenate(ws)
        return float(np.sum(integrand(u, w)))

    u_lo, u_hi = np.log(x) - 50.0, np.log(x)
    i1 = panel_sum(u_lo, u_hi, (u_hi - u_lo) / panels,
                   lambda u, w: w * omega._eval(np.exp(u)))
    v_hi = np.log(2.0)
    i2 = panel_sum(u_hi, v_hi, max((v_hi - u_hi) / panels, 1e-6),
                   lambda v, w: w * omega._eval(np.exp(v)) * np.exp(-v))
    return i1, i2


@pytest.mark.parametrize("omega", [
    PowerMajorant(0.5),
    PowerMajorant(0.25) + PowerMajorant(0.75),
    _SIX_KNOT_TABLE,
    # 511 knots: a row meets hundreds of them, so few rows share a panel count
    squared(parse_majorant("power:0.3+tabulated:0,0;0.5,0.2;2,0.5")),
], ids=["power", "sum", "tabulated", "squared_table"])
@pytest.mark.parametrize("panels", [4, 7, 64, 128])
def test_batched_ratio_max_equals_per_x_reference(omega, panels):
    knots = _knots(omega)
    xs = np.geomspace(1e-6, 1.9, 10)
    _assert_ratio_max_equals_reference(omega, xs, panels)
    if knots.size:
        # an x on a knot ends a sub-interval there and leaves a zero-length one
        _assert_ratio_max_equals_reference(omega, np.union1d(xs, knots[::knots.size // 8 + 1]),
                                          panels)


def _assert_ratio_max_equals_reference(omega, xs, panels):
    best, best_x = -np.inf, None
    batched = np.column_stack(_singular_integrals(omega, xs, panels))
    for x, row in zip(xs, batched):
        i1, i2 = _reference_integrals(omega, float(x), panels)
        assert row.tolist() == [i1, i2]  # both integrals, to the bit
        ratio = (i1 + x * i2) / omega(float(x))
        if ratio > best:
            best, best_x = ratio, float(x)
    assert _ratio_max(omega, xs, panels) == (best, best_x)


def test_gauss_sums_calls_the_integrand_once(monkeypatch):
    # one call over every panel of every row, however the knots split the
    # rows: the 6-knot table has about 49 panel layouts per call
    calls = []
    real = _gauss_sums

    def spy(integrand, a, b, breaks, max_width):
        calls.append(0)

        def counted(u, w):
            calls[-1] += 1
            return integrand(u, w)

        return real(counted, a, b, breaks, max_width)

    monkeypatch.setattr(sys.modules[__name__], "_gauss_sums", spy)
    cert = _quadrature_certificate(_SIX_KNOT_TABLE, 64)
    assert not cert.is_regular and calls == [1] * 12
