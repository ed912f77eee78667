import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicereg.quaternion import (
    E1,
    E2,
    E3,
    ONE,
    UNIT_E1,
    UNIT_E2,
    UNIT_E3,
    ImaginaryUnit,
    NonUnitRotor,
    Quaternion,
    conj_array,
    conjugate,
    from_array,
    hamilton_mul,
    hmul_array,
    norm,
    norm_array,
    norm_squared,
    orthogonal_unit,
    quat_array,
    rotate,
    slice_coordinate,
    slice_decompose,
    slice_point,
    slice_points_array,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def quats(draw_scale=finite):
    return st.builds(Quaternion, draw_scale, draw_scale, draw_scale, draw_scale)


# --- multiplication table ---------------------------------------------------

BASIS = {"1": ONE, "e1": E1, "e2": E2, "e3": E3}

# full sign-exact table: rows x columns -> (sign, basis name)
TABLE = {
    ("1", "1"): (1, "1"), ("1", "e1"): (1, "e1"), ("1", "e2"): (1, "e2"), ("1", "e3"): (1, "e3"),
    ("e1", "1"): (1, "e1"), ("e1", "e1"): (-1, "1"), ("e1", "e2"): (1, "e3"), ("e1", "e3"): (-1, "e2"),
    ("e2", "1"): (1, "e2"), ("e2", "e1"): (-1, "e3"), ("e2", "e2"): (-1, "1"), ("e2", "e3"): (1, "e1"),
    ("e3", "1"): (1, "e3"), ("e3", "e1"): (1, "e2"), ("e3", "e2"): (-1, "e1"), ("e3", "e3"): (-1, "1"),
}


@pytest.mark.parametrize("left,right", list(TABLE))
def test_multiplication_table_sign_exact(left, right):
    sign, name = TABLE[(left, right)]
    got = hamilton_mul(BASIS[left], BASIS[right])
    want = BASIS[name] * sign
    assert got.components() == want.components()


def test_anticommutators():
    for a, b in [(E1, E2), (E2, E3), (E3, E1)]:
        lhs = hamilton_mul(a, b)
        rhs = hamilton_mul(b, a)
        assert (lhs + rhs).components() == (0.0, 0.0, 0.0, 0.0)


# --- norm and conjugation ----------------------------------------------------

@given(quats(), quats())
@settings(deadline=None)
def test_norm_multiplicative(p, q):
    lhs = norm(hamilton_mul(p, q))
    rhs = norm(p) * norm(q)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


@given(quats(), quats())
@settings(deadline=None)
def test_conjugate_antiautomorphism(p, q):
    lhs = conjugate(hamilton_mul(p, q))
    rhs = hamilton_mul(conjugate(q), conjugate(p))
    assert norm(lhs - rhs) <= 1e-9 * max(1.0, norm(p) * norm(q))


@given(quats())
@settings(deadline=None)
def test_norm_squared_is_q_qbar(q):
    prod = hamilton_mul(q, conjugate(q))
    assert abs(prod.x0 - norm_squared(q)) <= 1e-9 * max(1.0, norm_squared(q))
    assert prod.vector_norm() <= 1e-9 * max(1.0, norm_squared(q))


def test_inverse():
    q = Quaternion(0.9223, 0.3078, 0.1676, 0.1360)
    assert norm(hamilton_mul(q, q.inverse()) - ONE) < 1e-15
    assert norm(hamilton_mul(q.inverse(), q) - ONE) < 1e-15
    with pytest.raises(ZeroDivisionError):
        Quaternion(0.0).inverse()


# --- slice structure ----------------------------------------------------------

def test_slice_decompose_roundtrip():
    q = Quaternion(0.2, 0.1, 0.3, -0.1)
    x, y, i = slice_decompose(q)
    assert y >= 0.0
    rebuilt = Quaternion(x) + y * i.as_quaternion()
    assert norm(rebuilt - q) < 1e-14
    # real points decompose with y = 0
    x0, y0, _ = slice_decompose(Quaternion(0.7))
    assert x0 == 0.7 and y0 == 0.0


def test_slice_point_coordinate_roundtrip():
    i = ImaginaryUnit.from_vector(1.0, 2.0, -2.0)
    z = 0.3 - 0.55j
    p = slice_point(i, z)
    assert abs(slice_coordinate(p, i) - z) < 1e-14
    with pytest.raises(ValueError):
        slice_coordinate(Quaternion(0.1, 0.5, 0.0, 0.0), UNIT_E2)


def test_orthogonal_unit():
    for i in (UNIT_E1, UNIT_E2, UNIT_E3, ImaginaryUnit.from_vector(1.0, 1.0, 1.0)):
        j = orthogonal_unit(i)
        assert abs(i.dot(j)) < 1e-12
        jq = j.as_quaternion()
        assert abs(norm(jq) - 1.0) < 1e-12
        # i and j anticommute, their product is a third unit
        k = hamilton_mul(i.as_quaternion(), jq)
        assert abs(k.x0) < 1e-12
        assert abs(norm(k) - 1.0) < 1e-12
    # the companions of the axis units, which fix the default reports
    assert orthogonal_unit(UNIT_E1) == UNIT_E2
    assert orthogonal_unit(UNIT_E2) == orthogonal_unit(UNIT_E3) == UNIT_E1


@pytest.mark.parametrize("axis", range(3))
def test_orthogonal_unit_is_perpendicular_near_an_axis(axis):
    # Gram-Schmidt from the axis least aligned with i never divides by a
    # small rejection, so |i.j| stays at rounding level next to an axis too
    rng = np.random.default_rng(axis)
    for eps in (1e-2, 1e-3, 1e-5, 1e-7, 1e-9):
        for _ in range(20):
            v = eps * rng.normal(size=3)
            v[axis] += 1.0
            i = ImaginaryUnit.from_vector(*v)
            assert abs(i.dot(orthogonal_unit(i))) <= 1e-15


def test_imaginary_unit_from_quaternion_rejects_real_part():
    with pytest.raises(ValueError):
        ImaginaryUnit.from_quaternion(Quaternion(0.5, 1.0, 0.0, 0.0))
    i = ImaginaryUnit.from_quaternion(Quaternion(0.0, 3.0, 4.0, 0.0))
    assert abs(i.v1 - 0.6) < 1e-15 and abs(i.v2 - 0.8) < 1e-15


# --- rotations ----------------------------------------------------------------

def test_rotate_preserves_norm_and_real_axis():
    r = Quaternion(0.5, 0.5, 0.5, 0.5)  # unit rotor
    q = Quaternion(0.2, 0.1, 0.3, -0.1)
    out = rotate(r, q)
    assert abs(norm(out) - norm(q)) < 1e-14
    assert abs(out.x0 - q.x0) < 1e-14  # real part is fixed by conjugation
    with pytest.raises(NonUnitRotor):
        rotate(Quaternion(1.0, 1.0, 0.0, 0.0), q)


def test_rotation_permutes_units():
    # conjugation by (1+e1)/sqrt(2) fixes e1 and rotates e2 -> e3
    r = Quaternion(1.0, 1.0, 0.0, 0.0) * (1.0 / math.sqrt(2.0))
    assert norm(rotate(r, E1) - E1) < 1e-14
    assert norm(rotate(r, E2) - E3) < 1e-14


# --- array mirror --------------------------------------------------------------

def test_array_helpers_match_scalar():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(40, 4))
    b = rng.normal(size=(40, 4))
    prod = hmul_array(a, b)
    for k in range(0, 40, 7):
        want = hamilton_mul(from_array(a[k]), from_array(b[k]))
        assert np.allclose(prod[k], np.array(want.components()), atol=1e-12)
    assert np.allclose(conj_array(a), a * np.array([1.0, -1.0, -1.0, -1.0]))
    assert np.allclose(norm_array(a), np.linalg.norm(a, axis=1))
    qs = quat_array([Quaternion(1, 2, 3, 4), ONE])
    assert qs.shape == (2, 4) and qs[0, 3] == 4.0


def test_slice_points_array_matches_scalar():
    i = ImaginaryUnit.from_vector(0.0, 1.0, 1.0)
    zs = np.array([0.1 + 0.2j, -0.4j, 0.9])
    arr = slice_points_array(i, zs)
    for k, z in enumerate(zs):
        assert norm(from_array(arr[k]) - slice_point(i, complex(z))) < 1e-15
