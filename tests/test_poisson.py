import math

import numpy as np
import pytest

from slicereg.lipschitz import ray_grid
from slicereg.majorant import PowerMajorant
from slicereg.poisson import (
    MODES,
    BoundaryTooClose,
    boundary_spectrum,
    defect_sup,
    harmonic_defect,
    modulus_boundary_function,
    poisson_integral,
    poisson_integral_slice,
    poisson_modulus_sq,
    resolved_cap,
    rotation_equivariance_residual,
    slice_powers,
    sq_defect_sup,
    star_kernel_bound,
)
from slicereg.quaternion import (
    ONE,
    UNIT_E1,
    UNIT_E2,
    UNIT_E3,
    E1,
    E2,
    ImaginaryUnit,
    Quaternion,
    norm,
    slice_point,
)
from slicereg.series import SliceSeries, eval_complex, on_circle, split
from slicereg.verify import default_corpus


def test_constant_reproduces_exactly():
    one = np.ones_like
    for r in (0.0, 0.5, 0.9):
        q = slice_point(UNIT_E1, r + 0.0j)
        assert abs(poisson_integral(one, q, UNIT_E1) - 1.0) < 1e-12
    # slice form, complex evaluation points
    zs = np.array([0.0, 0.3 + 0.4j, -0.7j])
    vals = poisson_integral_slice(lambda t: np.ones_like(t), zs, 1024)
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_reproduces_harmonic_polynomials():
    # P[cos k t](r e^{i s}) = r^k cos k s: spectral accuracy of the trapezoid rule
    for k in (1, 3):
        def u(t, k=k):
            return np.cos(k * t)

        z = 0.5 * np.exp(0.7j)
        got = poisson_integral_slice(u, np.array([z]), 512)[0]
        want = 0.5 ** k * math.cos(0.7 * k)
        assert abs(got - want) < 1e-12


def test_mean_value_at_origin():
    f = SliceSeries([0.2 * E1, ONE, 0.3 * E2])
    u = modulus_boundary_function(f, UNIT_E1)
    got = poisson_integral(u, Quaternion(0.0), UNIT_E1, nodes=2048)
    ts = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    assert abs(got - float(np.mean(u(ts)))) < 1e-13


def test_even_data_is_conjugation_symmetric():
    # an intrinsic f has |f(e^{it})| even in t, so the integral is invariant
    # under q -> conjugate(q), on the slice and off it
    f = SliceSeries.from_real([0.1, 1.0, 0.0, 0.4])
    u = modulus_boundary_function(f, UNIT_E1)
    p = slice_point(UNIT_E1, 0.3 + 0.4j)
    assert abs(poisson_integral(u, p, UNIT_E1) - poisson_integral(u, p.conjugate(), UNIT_E1)) < 1e-12
    q = Quaternion(0.3) + 0.4 * ImaginaryUnit.from_vector(1.0, 2.0, 2.0).as_quaternion()
    assert abs(poisson_integral(u, q, UNIT_E1) - poisson_integral(u, q.conjugate(), UNIT_E1)) < 1e-12


def test_modes_cover_split_moduli():
    f = SliceSeries([0.2 * E1, ONE])
    assert set(MODES) == {"plus", "minus", "modulus", "modulus_squared_1", "modulus_squared_2"}
    for mode in MODES:
        d = harmonic_defect(f, slice_point(UNIT_E1, 0.25 + 0.1j), UNIT_E1, mode, nodes=1024)
        assert d >= -1e-8  # subharmonicity of component moduli


def test_harmonic_defect_zero_for_constant_modulus():
    # f = q has |f| = |q|: defect P[1](x) - |x| = 1 - |x| > 0
    f = SliceSeries([0.0, 1.0])
    x = slice_point(UNIT_E1, 0.3)
    d = harmonic_defect(f, x, UNIT_E1, "modulus", nodes=1024)
    assert abs(d - 0.7) < 1e-10


def test_rotation_equivariance():
    f = SliceSeries([0.1 * E2, ONE, 0.2 * E1])
    u = modulus_boundary_function(f, UNIT_E1)
    r = Quaternion(1.0, 1.0, 0.0, 0.0) * (1.0 / math.sqrt(2.0))
    q = slice_point(UNIT_E1, 0.4 + 0.2j)
    assert rotation_equivariance_residual(u, r, q, UNIT_E1, nodes=1024) < 1e-8
    with pytest.raises(ValueError):
        rotation_equivariance_residual(u, Quaternion(2.0), q, UNIT_E1)


def test_star_kernel_bound_orderings():
    f = SliceSeries([0.3 * E1, ONE, 0.2 * E2])
    x = slice_point(UNIT_E1, 0.35 + 0.2j)
    lhs, rhs = star_kernel_bound(f, x, UNIT_E1, UNIT_E2, nodes=1024)
    assert lhs <= rhs + 1e-8
    # j = i degenerates to twice the plain integral of the constant function
    c = SliceSeries([Quaternion(0.4, 0.1, 0.0, 0.2)])
    lhs_c, rhs_c = star_kernel_bound(c, x, UNIT_E1, UNIT_E1, nodes=1024)
    assert abs(rhs_c - 2.0 * lhs_c) < 1e-10


def test_boundary_too_close():
    one = np.ones_like
    with pytest.raises(BoundaryTooClose):
        poisson_integral(one, slice_point(UNIT_E1, 0.9999), UNIT_E1, nodes=64)
    with pytest.raises(BoundaryTooClose):
        poisson_integral_slice(lambda t: np.ones_like(t), np.array([0.999]), 64)
    # the same point is fine with enough nodes: trapezoid error ~ 2 r^n
    assert abs(poisson_integral(one, slice_point(UNIT_E1, 0.9999), UNIT_E1, nodes=2 ** 18) - 1.0) < 1e-8


def test_slice_batch_matches_scalar():
    f = SliceSeries([0.2 * E1, ONE, 0.3 * E2])
    u = modulus_boundary_function(f, UNIT_E1)
    zs = np.array([0.1, 0.2 + 0.3j, -0.5j, 0.7])
    batch = poisson_integral_slice(u, zs, 1024)
    for k, z in enumerate(zs):
        q = slice_point(UNIT_E1, complex(z))
        assert abs(batch[k] - poisson_integral(u, q, UNIT_E1, nodes=1024)) < 1e-12


def test_stacked_boundary_data_equals_separate_calls():
    f = SliceSeries([0.2 * E1, ONE, 0.3 * E2])
    u_a = modulus_boundary_function(f, UNIT_E1)
    u_b = modulus_boundary_function(f, UNIT_E1, "modulus_squared_1")
    zs = np.array([0.0, 0.1, 0.2 + 0.3j, -0.5j, 0.7, -0.6 + 0.6j])
    both = poisson_integral_slice(lambda t: np.stack([u_a(t), u_b(t)]), zs, 1024)
    assert both.shape == (2, zs.size)
    assert np.array_equal(both[0], poisson_integral_slice(u_a, zs, 1024))
    assert np.array_equal(both[1], poisson_integral_slice(u_b, zs, 1024))


def _direct_trapezoid(u, zs, nodes):
    """The trapezoid mean of u against the disc Poisson kernel, summed
    directly over a (points, nodes) kernel: the reference the spectral form
    must match."""
    zs = np.asarray(zs, dtype=complex)
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    vals = np.asarray(u(angles), dtype=float)
    kernel = (1.0 - np.abs(zs[..., None]) ** 2) / np.abs(zs[..., None] - np.exp(1j * angles)) ** 2
    means = [np.mean(row * kernel, axis=-1) for row in vals.reshape(-1, nodes)]
    return np.reshape(means, vals.shape[:-1] + zs.shape)


def _positive_rows(t):
    f = SliceSeries([0.2 * E1, ONE, 0.3 * E2])
    return np.stack([np.exp(np.cos(t)), np.abs(np.sin(3.0 * t)) ** 0.3 + 0.1,
                     modulus_boundary_function(f, UNIT_E1)(t)])


@pytest.mark.parametrize("nodes", [16, 17, 1000, 2048, 4096])
def test_spectral_trapezoid_matches_direct_sum(nodes):
    # positive data, so the Poisson mean is bounded away from 0 and the
    # comparison is relative; the origin and the resolved cap are included
    cap = resolved_cap(1.0, nodes)
    rng = np.random.default_rng(nodes)
    zs = cap * np.sqrt(rng.uniform(size=500)) * np.exp(2j * np.pi * rng.uniform(size=500))
    zs[:3] = (0.0, cap, cap * np.exp(2.5j))
    want = _direct_trapezoid(_positive_rows, zs, nodes)
    got = poisson_integral_slice(_positive_rows, zs, nodes)
    assert got.shape == (3, 500)
    assert np.max(np.abs(got - want) / want) <= 1e-12
    # one point as a 0-d array, and a 2-D grid of points
    one = poisson_integral_slice(np.exp, zs[1], nodes)
    assert one.shape == () and abs(one - _direct_trapezoid(np.exp, zs[1], nodes)) <= 1e-12 * one
    grid = poisson_integral_slice(_positive_rows, zs.reshape(20, 25), nodes)
    assert np.array_equal(grid, got.reshape(3, 20, 25))
    with pytest.raises(BoundaryTooClose):
        poisson_integral_slice(np.exp, np.array(cap + 2e-9), nodes)


def test_modulus_sq_closed_form_is_the_trapezoid_limit():
    # |F|^2 on the circle is a trigonometric polynomial of degree d with
    # coefficients gamma_m, so the trapezoid rule aliases only frequencies
    # past N - d: its error is at most 2 sum|gamma| r^(N-d) / (1 - r^N)
    # at |z| <= r, falling geometrically in N (Trefethen & Weideman)
    xs = ray_grid(0.6, 24, 6, 4)
    r = float(np.max(np.abs(xs)))
    for m in default_corpus():
        for c in split(m.series, UNIT_E1).C:
            d = len(c) - 1
            gamma = [sum(c[k + j] * np.conj(c[k]) for k in range(d + 1 - j)) for j in range(d + 1)]
            total = abs(gamma[0]) + 2.0 * sum(abs(g) for g in gamma[1:])
            exact = poisson_modulus_sq(c, xs)
            want = gamma[0].real + 2.0 * sum((g * xs ** j).real for j, g in enumerate(gamma) if j)
            assert np.max(np.abs(exact - want)) <= 1e-15 * (1.0 + total)

            def sq(t, c=c):
                return np.abs(eval_complex(c, np.exp(1j * t))) ** 2

            errs = []
            for nodes in (32, 64, 128):
                err = float(np.max(np.abs(poisson_integral_slice(sq, xs, nodes) - exact)))
                bound = 2.0 * total * r ** (nodes - d) / (1.0 - r ** nodes)
                assert err <= bound + 1e-14 * (1.0 + total), (m.name, nodes)
                errs.append(err)
            # not vacuous: at 32 nodes the aliasing of nonzero data shows
            assert total == 0.0 or errs[0] > 1e-9


def test_sq_defect_sup_is_exact():
    omega = PowerMajorant(0.25)
    xs = ray_grid(resolved_cap(0.995, 2048), 24, 6, 4)
    for m in default_corpus():
        comps = split(m.series, UNIT_E1).C
        exact = sq_defect_sup(comps, omega, xs)
        trap = np.array(_defect_sup_loop(comps, omega, xs, 2048, 2))
        assert exact.shape == (2,)
        if m.series.degree == 0:
            # the quadrature floor is gone: the defect of a constant is 0
            assert np.all(np.abs(exact) <= 1e-15)
        assert np.all(np.abs(exact - trap) <= 1e-3)


@pytest.mark.parametrize("unit", [UNIT_E1, ImaginaryUnit.from_vector(1.0, 1.0, 1.0)],
                         ids=["e1", "i111"])
def test_sq_defect_of_a_corpus_constant_is_exactly_zero(unit):
    # |c(x)|^2 is formed as gamma_0 is, re^2 + im^2, so P[|c|^2] - |c|^2
    # cancels exactly for a constant row; np.abs(v) ** 2 left 3.9e-16
    xs = ray_grid(resolved_cap(0.995, 2048), 24, 6, 4)
    constants = [m for m in default_corpus() if m.series.degree == 0]
    assert [m.name for m in constants] == ["const_real", "const_quat"]
    for m in constants:
        defect = sq_defect_sup(split(m.series, unit).C, PowerMajorant(0.25), xs)
        assert np.all(defect == 0.0), (m.name, defect)


def _defect_sup_loop(comps, omega, xs, nodes, power):
    """One Poisson call per component, one sup per call."""
    den = omega(1.0 - np.abs(xs)) ** power
    sups = []
    for c in comps:
        def moduli(z, c=c):
            return np.abs(eval_complex(c, z)) ** power

        p_vals = poisson_integral_slice(on_circle(moduli), xs, nodes)
        sups.append(float(np.max((p_vals - moduli(xs)) / den)))
    return sups


def test_defect_sup_equals_per_component_loop():
    omega = PowerMajorant(0.5)
    nodes = 1024
    xs = ray_grid(resolved_cap(1.0, nodes), 24, 6, 4)
    for i in (UNIT_E1, ImaginaryUnit.from_vector(1.0, 1.0, 1.0)):
        for m in default_corpus():
            F, G = split(m.series, i).C
            for comps in ((F, G), (F,), (G,)):
                want = _defect_sup_loop(comps, omega, xs, nodes, 1)
                assert defect_sup(comps, omega, xs, nodes).tolist() == want, m.name


@pytest.mark.parametrize("nodes", [16, 17, 512, 2048])
def test_stored_spectrum_and_powers_keep_the_bits_of_a_bare_call(nodes):
    # a spectrum and powers built once and read by many means give the
    # bytes of the call that builds both itself, for one row or stacked
    cap = resolved_cap(0.995, nodes)
    zs = ray_grid(cap, 24, 6, 4)
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    for points in (zs, zs[:1], zs[:23].copy(), zs.reshape(24, 6), np.array([0.0j])):
        powers = slice_powers(points, nodes)
        assert powers.size == points.size
        for u in (lambda t: _positive_rows(t)[2], _positive_rows):
            want = poisson_integral_slice(u, points, nodes)
            spectrum = boundary_spectrum(u(angles), nodes)
            for data, where in ((spectrum, powers), (spectrum, points), (u, powers)):
                got = poisson_integral_slice(data, where, nodes)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        poisson_integral_slice(boundary_spectrum(_positive_rows(angles), nodes), zs, nodes + 1)
    with pytest.raises(ValueError):
        poisson_integral_slice(_positive_rows, slice_powers(zs, nodes), 2 * nodes)
    with pytest.raises(BoundaryTooClose):
        slice_powers(np.array([1.0 - 5.0 / nodes]), nodes)


def test_defect_sup_from_a_stored_spectrum_and_powers_keeps_its_bits():
    omega = PowerMajorant(0.5)
    nodes = 1024
    xs = ray_grid(resolved_cap(1.0, nodes), 24, 6, 4)
    powers = slice_powers(xs, nodes)
    e = np.exp(1j * 2.0 * np.pi * np.arange(nodes) / nodes)
    for m in default_corpus():
        s = split(m.series, ImaginaryUnit.from_vector(1.0, 1.0, 1.0))
        spectrum = boundary_spectrum(np.abs(s.at(e)), nodes)
        want = defect_sup(s.C, omega, xs, nodes)
        for where, data in ((powers, spectrum), (xs, spectrum), (powers, None)):
            assert defect_sup(s.C, omega, where, nodes, data).tobytes() == want.tobytes()


def _four_term_integral(u, q, i, nodes):
    """P_i[u](q) with |q - e_i(t)|^2 written out in the four coordinates."""
    t = 2.0 * np.pi * np.arange(nodes) / nodes
    d2 = ((q.x0 - np.cos(t)) ** 2 + (q.x1 - i.v1 * np.sin(t)) ** 2
          + (q.x2 - i.v2 * np.sin(t)) ** 2 + (q.x3 - i.v3 * np.sin(t)) ** 2)
    return float(np.mean(u(t) * (1.0 - norm(q) ** 2) / d2))


def test_off_plane_integral_matches_four_term_kernel():
    f = SliceSeries([0.1 * E2, ONE, 0.2 * E1])
    rng = np.random.default_rng(5)
    for i in (UNIT_E1, UNIT_E3, ImaginaryUnit.from_vector(0.3, -1.0, 2.0)):
        u = modulus_boundary_function(f, i)
        for _ in range(10):
            v = rng.normal(size=4)
            q = Quaternion(*(rng.uniform(0.0, 0.85) * v / np.linalg.norm(v)))
            want = _four_term_integral(u, q, i, 1024)
            assert abs(poisson_integral(u, q, i, 1024) - want) <= 1e-14


@pytest.mark.parametrize("nodes", [16, 64, 1024, 2048])
def test_resolved_cap_is_the_largest_accepted_radius(nodes):
    cap = resolved_cap(1.0, nodes)
    assert resolved_cap(0.5, nodes) == min(0.5, cap)
    edge = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7))
    # accepted, with the trapezoid's aliasing error 2 r^N / (1 - r^N) for
    # constant data, r^N < (1 - 10/N)^N < e^-10
    alias = 2.0 * math.exp(-10.0) / (1.0 - math.exp(-10.0))
    p_one = poisson_integral_slice(np.ones_like, cap * edge, nodes)
    assert np.max(np.abs(p_one - 1.0)) <= alias
    with pytest.raises(BoundaryTooClose):
        poisson_integral_slice(np.ones_like, np.array([cap + 2e-9]), nodes)
    xs = ray_grid(cap, 5, 3, 4)
    assert xs.shape == (15,)
    assert np.abs(xs).max() < cap and np.abs(xs[:3]).max() == 0.0


def test_refused_points_and_node_counts():
    one = np.ones_like
    f = SliceSeries([0.0, 1.0])
    x = slice_point(UNIT_E1, 0.3)
    for call in (lambda: poisson_integral(one, x, UNIT_E1, nodes=8),
                 lambda: poisson_integral_slice(one, np.array([0.3]), 8),
                 lambda: star_kernel_bound(f, x, UNIT_E1, UNIT_E2, nodes=8)):
        with pytest.raises(ValueError, match="nodes"):
            call()
    # outside the open ball, on the plane and off it: not a resolution failure
    for q in (Quaternion(0.6, 0.8, 0.0, 0.0), Quaternion(0.0, 0.0, 1.0, 0.0)):
        with pytest.raises(ValueError, match="open ball") as exc:
            poisson_integral(one, q, UNIT_E1, nodes=64)
        assert not isinstance(exc.value, BoundaryTooClose)
    with pytest.raises(ValueError, match="open ball"):
        poisson_integral_slice(one, np.array([0.2, 1.2j]), 64)
    # the distance off the plane counts toward the resolution floor
    with pytest.raises(BoundaryTooClose):
        poisson_integral(one, Quaternion(0.0, 0.0, 0.95, 0.0), UNIT_E1, nodes=64)
    q = Quaternion(0.0, 0.0, 0.95, 0.0)
    assert abs(poisson_integral(one, q, UNIT_E1, nodes=1024)
               - _four_term_integral(one, q, UNIT_E1, 1024)) <= 1e-14
    with pytest.raises(BoundaryTooClose):
        star_kernel_bound(f, slice_point(UNIT_E1, 0.99j), UNIT_E1, UNIT_E2, nodes=64)
