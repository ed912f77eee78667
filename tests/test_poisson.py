import math

import numpy as np
import pytest

from slicereg.lipschitz import _golden_angles, radial_grid
from slicereg.majorant import PowerMajorant
from slicereg.poisson import (
    MODES,
    BoundaryTooClose,
    defect_sup,
    harmonic_defect,
    modulus_boundary_function,
    poisson_integral,
    poisson_integral_slice,
    rotation_equivariance_residual,
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


def _defect_sup_loop(comps, omega, xs, nodes, power):
    """One Poisson call per component, the sup taken across the calls."""
    den = omega(1.0 - np.abs(xs)) ** power
    best = -math.inf
    for c in comps:
        def moduli(z, c=c):
            return np.abs(eval_complex(c, z)) ** power

        p_vals = poisson_integral_slice(on_circle(moduli), xs, nodes)
        best = max(best, float(np.max((p_vals - moduli(xs)) / den)))
    return best


@pytest.mark.parametrize("power", [1, 2])
def test_defect_sup_equals_per_component_loop(power):
    omega = PowerMajorant(0.5)
    nodes = 1024
    radii = radial_grid(1.0 - 10.0 / nodes - 1e-9, 24)
    xs = (radii[:, None] * np.exp(1j * _golden_angles(6, offset=4))[None, :]).ravel()
    for i in (UNIT_E1, ImaginaryUnit.from_vector(1.0, 1.0, 1.0)):
        for m in default_corpus():
            F, G, _ = split(m.series, i)
            for comps in ((F, G), (F,), (G,)):
                want = _defect_sup_loop(comps, omega, xs, nodes, power)
                assert defect_sup(comps, omega, xs, nodes, power) == want, m.name


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
