import math

import numpy as np
import pytest

import slicereg.majorant
from slicereg.majorant import (
    DomainError,
    PowerMajorant,
    ScaledMajorant,
    SumMajorant,
    TabulatedMajorant,
    _quadrature_certificate,
    _ratio_max,
    _singular_integrals,
    check_regular,
    combine,
    power_regularity_constant,
    squared,
)
from slicereg.cli import parse_majorant

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


# check_regular certifies powers by the closed form; the quadrature it runs
# for every other weight is tested on powers against that closed form
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
        raise AssertionError("quadrature ran for a power weight")

    monkeypatch.setattr(slicereg.majorant, "_gauss_sums", refuse)
    monkeypatch.setattr(slicereg.majorant, "_monotonicity", refuse)
    c = 1.0 / alpha + 1.0 / (1.0 - alpha)
    cert = check_regular(make(alpha))
    assert cert.empirical_C == power_regularity_constant(alpha) == pytest.approx(c, rel=1e-12)
    assert cert.is_regular and cert.monotone and cert.ratio_monotone
    assert cert.history == (cert.empirical_C,)
    assert (cert.worst_x, cert.grid_size) == (0.0, 0)


def test_closed_form_rejects_an_overflowing_constant(monkeypatch):
    monkeypatch.setattr(slicereg.majorant, "_gauss_sums", None)  # must not be called
    cert = check_regular(PowerMajorant(1e-320))  # 1/alpha overflows to inf
    assert not cert.is_regular
    assert cert.empirical_C == math.inf and cert.history == (math.inf,)


@pytest.mark.parametrize("omega", [
    PowerMajorant(1.0),
    ScaledMajorant(2.0, PowerMajorant(1.0)),
    ScaledMajorant(0.0, PowerMajorant(0.5)),
    PowerMajorant(0.25) + PowerMajorant(0.75),
    squared(PowerMajorant(0.75)),
    TabulatedMajorant([0.0, 0.001, 0.01, 0.1, 1.0, 2.0], [0.0, 0.03, 0.1, 0.3, 1.0, 1.4]),
], ids=["linear", "scaled_linear", "zero_scale", "sum", "squared_table", "tabulated"])
def test_other_weights_go_through_the_quadrature(omega, monkeypatch):
    calls = []
    real = slicereg.majorant._quadrature_certificate

    def spy(w, quad_nodes):
        calls.append((w, quad_nodes))
        return real(w, quad_nodes)

    monkeypatch.setattr(slicereg.majorant, "_quadrature_certificate", spy)
    cert = check_regular(omega, quad_nodes=32)
    assert calls == [(omega, 32)]
    assert repr(cert) == repr(real(omega, 32))


def test_identity_majorant_rejected_with_log_divergence():
    cert = check_regular(PowerMajorant(1.0))
    assert not cert.is_regular
    # the quotient at the worst grid point grows like 1 + ln(2/x)
    floor = 0.9 * math.log(2.0 / cert.worst_x)
    assert cert.empirical_C >= floor
    # and the refinement history keeps climbing
    assert cert.history[0] < cert.history[1] < cert.history[2]


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


@pytest.mark.parametrize("panels", [-3, 0, 2, 3])
def test_check_regular_needs_four_panels(panels):
    # with fewer panels the panel-doubling convergence check cannot fail
    with pytest.raises(ValueError):
        check_regular(PowerMajorant(0.5), quad_nodes=panels)


def _reference_integrals(omega, x, panels):
    """I1 and I2 of the regularity ratio at one x: composite 8-point
    Gauss-Legendre panels in u = log t, split at the knots."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    log_knots = np.log(np.maximum(omega.knots(), 1e-300))

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
    knots = omega.knots()
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
    real = slicereg.majorant._gauss_sums

    def spy(integrand, a, b, breaks, max_width):
        calls.append(0)

        def counted(u, w):
            calls[-1] += 1
            return integrand(u, w)

        return real(counted, a, b, breaks, max_width)

    monkeypatch.setattr(slicereg.majorant, "_gauss_sums", spy)
    cert = _quadrature_certificate(_SIX_KNOT_TABLE, 64)
    assert not cert.is_regular and calls == [1] * 12
