import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import slicereg.series
from slicereg.cli import RunConfig
from slicereg.lipschitz import SamplePlan, disc_points, pair_weights

from slicereg.quaternion import (
    E1,
    E2,
    ONE,
    UNIT_E1,
    ImaginaryUnit,
    Quaternion,
    hamilton_mul,
    hmul_array,
    norm,
    orthogonal_unit,
    slice_point,
    slice_points_array,
)
from slicereg.series import (
    AsymmetryDetected,
    NotInvertibleAtOrigin,
    SliceSeries,
    ZeroBase,
    cullen_derivative,
    eval_complex,
    evaluate,
    evaluate_batch,
    is_intrinsic,
    regular_conjugate,
    representation_extend,
    slice_basis,
    split,
    split_modulus,
    star_inverse,
    star_inverse_derivative,
    star_pointwise,
    star_product,
    symmetrization,
    zero_leg_hypot,
)
from slicereg.verify import default_corpus, run_suite

small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
quats = st.builds(Quaternion, small, small, small, small)


def series_strategy(max_degree=5):
    return st.lists(quats, min_size=1, max_size=max_degree + 1).map(
        lambda cs: SliceSeries(tuple(cs))
    )


MIX = SliceSeries([0.3 * E1, ONE, 0.5 * E2])  # 0.3 e1 + q + 0.5 q^2 e2


def test_evaluate_hand_values():
    # at q = 0.3 + 0.4 e1: q^2 = -0.07 + 0.24 e1
    q = Quaternion(0.3, 0.4, 0.0, 0.0)
    got = evaluate(MIX, q)
    assert norm(got - Quaternion(0.3, 0.7, -0.035, 0.12)) < 1e-15
    # constants and the identity
    assert norm(evaluate(SliceSeries([Quaternion(1, 2, 3, 4)]), q) - Quaternion(1, 2, 3, 4)) == 0.0
    assert norm(evaluate(SliceSeries([0.0, 1.0]), q) - q) == 0.0


def test_powers_use_left_multiplication():
    # f(q) = q^2 a with a = e2 must be q*q*a, not a*q*q
    a = E2
    f = SliceSeries([Quaternion(0.0), Quaternion(0.0), a])
    q = Quaternion(0.1, 0.2, 0.3, 0.4)
    want = hamilton_mul(hamilton_mul(q, q), a)
    assert norm(evaluate(f, q) - want) < 1e-15


@given(series_strategy(), quats)
@settings(deadline=None)
def test_evaluate_batch_matches_scalar(f, q):
    pts = np.array([q.components(), (0.0, 0.0, 0.0, 0.0)])
    vals = evaluate_batch(f, pts)
    assert np.allclose(vals[0], evaluate(f, q).components(), atol=1e-9, rtol=1e-9)
    assert np.allclose(vals[1], evaluate(f, Quaternion(0.0)).components(), atol=0)


def same_bits(got, want) -> bool:
    """Equal shapes and equal float components, signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    g, w = got.reshape(-1).view(float), want.reshape(-1).view(float)
    return np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


def horner_by_hmul_array(f, points):
    # the Horner loop evaluate_batch replaced, kept as the reference
    pts = np.asarray(points, dtype=float)
    acc = np.broadcast_to(f.array[-1], pts.shape).copy()
    for n in range(f.degree - 1, -1, -1):
        acc = hmul_array(pts, acc)
        acc += f.array[n]
    return acc


def test_eval_complex_keeps_polyval_bits():
    rng = np.random.default_rng(7)
    radius = np.sqrt(rng.uniform(0.0, 0.98, 300))
    zs = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
    grid = zs[:240].reshape(12, 20)
    for m in default_corpus():
        for unit in (UNIT_E1, ImaginaryUnit(0.6, 0.0, 0.8)):
            split_f = split(m.series, unit)
            deriv = split_f.derivative()
            for c in (*split_f.C, *deriv.C):
                assert same_bits(eval_complex(c, zs), npoly.polyval(zs, c)), m.name
                for z in zs[:40]:
                    one = np.array([z])
                    assert same_bits(eval_complex(c, one), npoly.polyval(one, c)), m.name
                    assert same_bits(eval_complex(c, np.asarray(z)),
                                     npoly.polyval(np.asarray(z), c)), m.name
                assert same_bits(eval_complex(c, grid), npoly.polyval(grid, c)), m.name
    constant = np.array([0.75 - 0.25j])
    for z in (zs, zs[:1], np.asarray(zs[0]), grid):
        assert same_bits(eval_complex(constant, z), npoly.polyval(z, constant))


def test_blocked_eval_complex_keeps_polyval_bits():
    # block edges, a growth-circle grid (100, n_points), a 0-d point and a
    # degree-0 row; polyval evaluates each input as one array
    rng = np.random.default_rng(23)
    block = slicereg.series._BLOCK
    n = 2 * block + 3
    zs = np.sqrt(rng.uniform(0.0, 0.98, n)) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    circle = 0.5 * zs[:100, None] + 0.4 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 512))
    inputs = (*(zs[:k] for k in (block - 1, block, block + 1, n)), circle,
              np.asarray(zs[5]), zs[:0])
    rows = [c for m in default_corpus() for c in split(m.series, UNIT_E1).C]
    for c in (*rows, rng.normal(size=13) + 1j * rng.normal(size=13), np.array([0.75 - 0.25j])):
        for z in inputs:
            assert same_bits(eval_complex(c, z), npoly.polyval(z, c))


def test_eval_complex_writes_into_a_view_and_nowhere_else():
    rng = np.random.default_rng(29)
    block = slicereg.series._BLOCK
    zs = np.sqrt(rng.uniform(0.0, 0.98, block + 9)) * np.exp(1j * rng.uniform(-3.0, 3.0, block + 9))
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    for view in (lambda big: big[1, 3:3 + block + 1],  # crossing a block edge
                 lambda big: big[2, 7, ...]):  # 0-d
        big = np.full((3, block + 9), 7.0 - 7.0j)
        out = view(big)
        want = npoly.polyval(zs[:out.size].reshape(out.shape), c)
        mask = np.ones(big.shape, dtype=bool)
        view(mask)[...] = False
        assert eval_complex(c, zs[:out.size].reshape(out.shape), out=out) is out
        assert same_bits(view(big), want)
        assert np.all(big[mask] == 7.0 - 7.0j)
    with pytest.raises(ValueError):
        eval_complex(c, zs[:4], out=np.empty(5, dtype=complex))
    with pytest.raises(ValueError):  # strided: flattening it would copy
        eval_complex(c, zs[:4], out=np.empty(8, dtype=complex)[::2])


def test_split_at_equals_the_stack_of_its_rows():
    rng = np.random.default_rng(31)
    block = slicereg.series._BLOCK
    zs = np.sqrt(rng.uniform(0.0, 0.98, block + 1)) * np.exp(1j * rng.uniform(-3.0, 3.0, block + 1))
    for m in default_corpus():
        for s in (split(m.series, UNIT_E1), split(m.series, UNIT_E1).derivative()):
            for z in (zs, zs[:240].reshape(12, 20), zs[::3], complex(zs[0]), np.asarray(zs[1])):
                got = s.at(z)
                want = np.stack([eval_complex(c, z) for c in s.C])
                assert got.tobytes() == want.tobytes() and got.shape == want.shape, m.name
                assert same_bits(got, want), m.name


real_horner = slicereg.series._horner


def _horner_spy(monkeypatch):
    """The coefficient rows that reach the Horner loop, as a list."""
    rows, real = [], slicereg.series._horner

    def spy(c, zf, res):
        rows.append(c.copy())
        real(c, zf, res)
    monkeypatch.setattr(slicereg.series, "_horner", spy)
    return rows


def test_eval_complex_fills_a_zero_row_without_a_horner_pass(monkeypatch):
    rng = np.random.default_rng(37)
    block = slicereg.series._BLOCK
    zs = np.sqrt(rng.uniform(0.0, 0.98, block + 5)) * np.exp(1j * rng.uniform(-3.0, 3.0, block + 5))
    signs = rng.choice([0.0, -0.0], size=(13, 2))
    inputs = (zs, zs[:7], zs[:240].reshape(12, 20), np.asarray(zs[3]), zs[:0],
              np.array([0.0, -0.0, 1e-300, 0.9, -0.9j]))
    rows = _horner_spy(monkeypatch)
    for n in range(2, 14):
        for c in (np.zeros(n, dtype=complex), signs[:n, 0] + 1j * signs[:n, 1],
                  -np.zeros(n, dtype=complex)):
            for z in inputs:
                got = eval_complex(c, z)
                want = np.empty(np.shape(z), dtype=complex)
                real_horner(c, np.asarray(z, dtype=complex).reshape(-1), want.reshape(-1))
                # equal to the Horner values; only the sign of a zero may differ
                assert np.array_equal(got, want) and got.shape == want.shape
                assert np.array_equal(got, npoly.polyval(z, c))
                assert not np.signbit([got.real, got.imag]).any()
                out = np.full(np.shape(z), 5.0 + 5.0j)
                assert eval_complex(c, z, out=out) is out and not out.any()
    assert rows == []
    # a single nonzero coefficient runs the Horner loop; a constant does not
    eval_complex(np.array([0.0, 0.0, 1e-320j]), zs[:3])
    eval_complex(np.array([-0.0 + 0.0j]), zs[:3])
    assert len(rows) == 1


def test_evaluate_batch_keeps_hmul_array_bits():
    rng = np.random.default_rng(11)
    block = slicereg.series._BLOCK
    pts = rng.uniform(-0.5, 0.5, (2 * block + 3, 4))
    # block edges, and component-major points read as the transposed view
    # of their (4, n) rows
    shapes = (pts[:257], pts[0], pts[:240].reshape(12, 20, 4), pts[:257:3],
              *(pts[:n] for n in (block - 1, block, block + 1, 2 * block + 3)),
              pts.T.copy().T, pts[:block + 1].T.copy().T)
    for f in (*(m.series for m in default_corpus()), MIX, SliceSeries([Quaternion(1, -2, 0.5, 0)])):
        for p in shapes:
            assert same_bits(evaluate_batch(f, p), horner_by_hmul_array(f, p))
        rows = evaluate_batch(f, pts[:257])
        for q, row in zip(pts[:64], rows):
            assert same_bits(row, evaluate(f, Quaternion(*q)).components())
    with pytest.raises(ValueError):
        evaluate_batch(MIX, pts[:8].reshape(16, 2))  # 32 numbers, but not 4 per point


def test_horner_kernels_leave_polyval_and_hmul_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Horner kernels evaluate on their own")
    monkeypatch.setattr(npoly, "polyval", refuse)
    assert all(r.passed for r in run_suite(RunConfig(n_pairs=64, n_points=16, nodes=64)))
    monkeypatch.setattr(slicereg.series, "hmul_array", refuse)
    evaluate_batch(default_corpus()[-1].series, np.full((3, 4), 0.25))


def test_cullen_derivative_termwise():
    fp = cullen_derivative(MIX)
    assert fp.degree == 1
    assert norm(fp.coefficients[0] - ONE) == 0.0
    assert norm(fp.coefficients[1] - E2) == 0.0  # 2 * 0.5 e2
    assert cullen_derivative(SliceSeries([Quaternion(5.0)])).degree == 0
    assert norm(cullen_derivative(SliceSeries([Quaternion(5.0)])).coefficients[0]) == 0.0


# --- star product -------------------------------------------------------------

def test_star_product_is_coefficient_convolution():
    f = SliceSeries([E1, ONE])       # e1 + q
    g = SliceSeries([E2, ONE])       # e2 + q
    h = star_product(f, g)
    # (e1 + q) * (e2 + q) = e1 e2 + q(e1 + e2) + q^2
    assert norm(h.coefficients[0] - hamilton_mul(E1, E2)) == 0.0
    assert norm(h.coefficients[1] - (E1 + E2)) == 0.0
    assert norm(h.coefficients[2] - ONE) == 0.0
    # noncommutative: g * f has constant term e2 e1 = -e1 e2
    assert norm(star_product(g, f).coefficients[0] + hamilton_mul(E1, E2)) == 0.0


def star_product_by_sixteen_convolutions(f, g):
    """The star product as one written-out expression of its sixteen
    component convolutions, the form star_product had before it read the
    sign table: the oracle of its bits."""
    def conv(i, j):
        return np.convolve(f.array[:, i], g.array[:, j])

    return np.stack(
        [
            conv(0, 0) - conv(1, 1) - conv(2, 2) - conv(3, 3),
            conv(0, 1) + conv(1, 0) + conv(2, 3) - conv(3, 2),
            conv(0, 2) - conv(1, 3) + conv(2, 0) + conv(3, 1),
            conv(0, 3) + conv(1, 2) - conv(2, 1) + conv(3, 0),
        ],
        axis=-1,
    )


def test_star_product_keeps_the_bits_of_the_written_out_convolutions():
    rng = np.random.default_rng(35)

    def draw(degree):
        # coefficients over many binades, and some exact zeros
        shape = (degree + 1, 4)
        return SliceSeries(rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape)
                           * (rng.random(shape) > 0.1))

    for deg_f in range(13):
        for deg_g in range(13):
            f, g = draw(deg_f), draw(deg_g)
            got = star_product(f, g).array
            want = star_product_by_sixteen_convolutions(f, g)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(series_strategy(3), series_strategy(3), series_strategy(3))
@settings(deadline=None, max_examples=40)
def test_star_product_associative(f, g, h):
    lhs = star_product(star_product(f, g), h)
    rhs = star_product(f, star_product(g, h))
    scale = max(1.0, max(norm(c) for c in lhs.coefficients))
    assert all(
        norm(a - b) <= 1e-10 * scale
        for a, b in zip(lhs.coefficients, rhs.coefficients)
    )


@given(series_strategy(4), series_strategy(4), quats)
@settings(deadline=None, max_examples=60)
def test_star_pointwise_matches_series(f, g, q):
    q = q * (0.2 / max(1.0, norm(q)))  # keep well inside the ball
    fq = evaluate(f, q)
    if norm(fq) <= 1e-6:
        return
    got = star_pointwise(f, g, q)
    want = evaluate(star_product(f, g), q)
    scale = max(norm(want), 1e-6)
    assert norm(got - want) <= 1e-8 * scale


def test_star_pointwise_zero_base():
    f = SliceSeries([0.0, 1.0])
    with pytest.raises(ZeroBase):
        star_pointwise(f, f, Quaternion(0.0))


# --- conjugate, symmetrization, inverse ----------------------------------------

def test_symmetrization_real_and_symmetric():
    f = SliceSeries([Quaternion(0.5, 1.0, -0.3, 0.2), ONE, 0.5 * E2])
    fs = symmetrization(f)
    assert all(c.vector_norm() == 0.0 for c in fs.coefficients)
    # raw two-sided products agree coefficientwise
    fc = regular_conjugate(f)
    left = star_product(f, fc)
    right = star_product(fc, f)
    assert all(norm(a - b) < 1e-12 for a, b in zip(left.coefficients, right.coefficients))


def test_is_intrinsic():
    assert is_intrinsic(SliceSeries.from_real([0.0, 1.0, 0.5]))
    assert not is_intrinsic(SliceSeries([E1, ONE]))


def test_star_inverse_identity_through_order():
    f = SliceSeries([ONE, E1, 0.3 * E2])
    order = 16
    inv = star_inverse(f, order)
    prod = star_product(f, inv)
    assert norm(prod.coefficients[0] - ONE) < 1e-12
    assert all(norm(c) < 1e-12 for c in prod.coefficients[1:order + 1])
    with pytest.raises(NotInvertibleAtOrigin):
        star_inverse(SliceSeries([0.0, 1.0]), 4)


def test_star_inverse_derivative_consistent():
    f = SliceSeries([ONE, E1, 0.3 * E2, Quaternion(0.1, 0.0, 0.0, -0.2)])
    order = 10
    d_direct = star_inverse_derivative(f, order)
    d_chain = cullen_derivative(star_inverse(f, order + 1)).truncated(order)
    assert all(
        norm(a - b) < 1e-10
        for a, b in zip(d_direct.coefficients, d_chain.coefficients)
    )


# --- splitting and representation ----------------------------------------------

@given(series_strategy(6))
@settings(deadline=None, max_examples=40)
def test_split_roundtrip(f):
    i = ImaginaryUnit.from_vector(1.0, 1.0, -1.0)
    j = split(f, i).j
    assert abs(i.dot(j)) < 1e-12
    zs = np.array([0.3 + 0.4j, -0.2j, 0.8, 0.0])
    vals = split(f, i).values(zs)
    direct = evaluate_batch(f, slice_points_array(i, zs))
    scale = max(1.0, float(np.abs(direct).max()))
    assert np.abs(vals - direct).max() <= 1e-12 * scale


def test_split_components_of_known_function():
    # f = e1 + q e2 over the e1 slice: F = i constant, G(z) = z
    f = SliceSeries([E1, E2])
    F, G = split(f, UNIT_E1).C
    assert np.allclose(F, [1j, 0.0])
    assert np.allclose(G, [0.0, 1.0])


def _sandwich_split(f, i):
    """Scalar reference: 2*alpha = a - i*a*i and 2*beta*j = a + i*a*i."""
    iq, neg_jq = i.as_quaternion(), -orthogonal_unit(i).as_quaternion()
    F, G = [], []
    for a in f.coefficients:
        iai = hamilton_mul(iq, hamilton_mul(a, iq))
        alpha = (a - iai) * 0.5
        beta = hamilton_mul((a + iai) * 0.5, neg_jq)
        F.append(complex(alpha.x0, alpha.x1 * i.v1 + alpha.x2 * i.v2 + alpha.x3 * i.v3))
        G.append(complex(beta.x0, beta.x1 * i.v1 + beta.x2 * i.v2 + beta.x3 * i.v3))
    return np.array(F), np.array(G)


AXIS_UNITS = [ImaginaryUnit(*(s * np.eye(3)[k])) for k in range(3) for s in (1.0, -1.0)]
# coefficients on a 1/32 grid: no underflow in the reference's products
grid = st.integers(-64, 64).map(lambda n: n / 32.0)
grid_series = st.lists(st.tuples(grid, grid, grid, grid), min_size=1, max_size=6).map(SliceSeries)
unit_vectors = st.tuples(small, small, small).filter(lambda v: np.linalg.norm(v) > 1e-3)


@given(grid_series)
@settings(deadline=None, max_examples=40)
def test_split_is_the_sandwich_split_bit_for_bit_on_axis_units(f):
    for i in AXIS_UNITS:
        F, G = split(f, i).C
        F_ref, G_ref = _sandwich_split(f, i)
        assert np.array_equal(F, F_ref) and np.array_equal(G, G_ref)


@given(grid_series, unit_vectors)
@settings(deadline=None, max_examples=200)
def test_split_matches_the_sandwich_split_on_any_unit(f, v):
    # The two formulas agree exactly for an orthonormal (i, j) and part by
    # rounding only, near the coordinate axes too
    i = ImaginaryUnit.from_vector(*v)
    F, G = split(f, i).C
    F_ref, G_ref = _sandwich_split(f, i)
    bound = 4e-15 * np.linalg.norm(f.array, axis=1)
    assert np.all(np.abs(F - F_ref) <= bound) and np.all(np.abs(G - G_ref) <= bound)


@given(st.lists(small, min_size=1, max_size=8), unit_vectors)
@settings(deadline=None, max_examples=100)
def test_split_of_real_coefficients_has_no_second_component(values, v):
    F, G = split(SliceSeries.from_real(values), ImaginaryUnit.from_vector(*v)).C
    assert np.all(G == 0.0)
    assert np.array_equal(F, np.asarray(values, dtype=complex))


@given(unit_vectors)
@settings(deadline=None, max_examples=100)
def test_slice_basis_is_orthonormal(v):
    i = ImaginaryUnit.from_vector(*v)
    j = orthogonal_unit(i)
    B = slice_basis(i, j)
    assert np.abs(B @ B.T - np.eye(4)).max() <= 1e-15
    assert B[3, 0] == 0.0


def test_series_array_is_a_read_only_copy():
    coeffs = np.arange(8.0).reshape(2, 4)
    f = SliceSeries(coeffs)
    coeffs[0, 0] = 99.0
    assert f.array[0, 0] == 0.0
    with pytest.raises(ValueError):
        f.array[0, 0] = 1.0
    assert f.coefficients == (Quaternion(0, 1, 2, 3), Quaternion(4, 5, 6, 7))
    assert f.coefficients is f.coefficients  # built once


@pytest.mark.parametrize("bad", [[], np.empty((0, 4)), np.zeros((3, 3)), [(1.0, 2.0, 3.0)]],
                         ids=["empty_list", "empty_array", "three_columns", "three_components"])
def test_series_rejects_empty_or_misshaped_input(bad):
    with pytest.raises(ValueError):
        SliceSeries(bad)


def test_representation_formula_extends_off_slice():
    i = UNIT_E1
    rng = np.random.default_rng(11)
    f = SliceSeries([Quaternion(*row) for row in rng.normal(size=(6, 4)) * 0.4])
    worst = 0.0
    for _ in range(50):
        v = rng.normal(size=3)
        unit = ImaginaryUnit.from_vector(*v)
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.6)
        q = Quaternion(x) + y * unit.as_quaternion()
        fplus = evaluate(f, slice_point(i, complex(x, y)))
        fminus = evaluate(f, slice_point(i, complex(x, -y)))
        got = representation_extend(fplus, fminus, i, unit)
        worst = max(worst, norm(got - evaluate(f, q)))
    assert worst < 1e-12


def test_truncated_and_degree():
    f = SliceSeries([ONE, E1, E2, Quaternion(0.0)])
    assert f.degree == 3
    t = f.truncated(1)
    assert t.degree == 1 and norm(t.coefficients[1] - E1) == 0.0
    # truncating beyond the degree zero-pads to exactly that degree
    padded = f.truncated(9)
    assert padded.degree == 9
    assert np.array_equal(padded.array[:4], f.array) and not padded.array[4:].any()


# legs to hold against a zero leg: signed zeros, subnormals, the largest
# finite values, infinities, a NaN, and numbers in between
_LEGS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e-200,
                  0.3, -1.75, 1.0, 2.0 ** 52 + 1.0, 1e300, 1e308, -1e308,
                  np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, np.nan])


def _same_float_bits(got, want) -> bool:
    """Equal shapes, and equal bits outside NaN, where both are NaN."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


def test_zero_leg_hypot_is_np_hypot_bit_for_bit():
    rng = np.random.default_rng(41)
    exps = rng.uniform(-1074.0, 1023.0, 4000)
    wide = np.concatenate([_LEGS, np.ldexp(rng.uniform(0.5, 1.0, 4000), exps.astype(int))
                           * rng.choice([-1.0, 1.0], 4000)])
    for zero in (np.zeros_like(wide), -np.zeros_like(wide)):
        for a, b in ((wide, zero), (zero, wide)):
            want = np.hypot(a, b)
            assert _same_float_bits(zero_leg_hypot(a, b), want)
            out = np.empty_like(want)
            assert zero_leg_hypot(a, b, out=out) is out and _same_float_bits(out, want)
            # complex legs: the hypot of their moduli
            assert _same_float_bits(zero_leg_hypot(a + 0j, b + 0j), want)
    # a NaN leg is not all zero: the hypot runs, and NaN stays NaN
    nan_leg = np.zeros(3)
    nan_leg[1] = np.nan
    for a, b in ((nan_leg, np.zeros(3)), (np.zeros(3), nan_leg), (nan_leg, np.ones(3))):
        assert _same_float_bits(zero_leg_hypot(a, b), np.hypot(a, b))
    # both legs nonzero: np.hypot itself, in both orders and in place
    a, b = rng.normal(size=(2, 5000)) * np.exp(rng.uniform(-50.0, 50.0, (2, 5000)))
    b[::7] = 0.0
    for x, y in ((a, b), (b, a)):
        assert _same_float_bits(zero_leg_hypot(x, y), np.hypot(x, y))
        inplace = x.copy()
        zero_leg_hypot(inplace, y, out=inplace)
        assert _same_float_bits(inplace, np.hypot(x, y))


def test_split_modulus_keeps_the_old_formula_on_every_stream():
    plan = SamplePlan(n_pairs=2000, n_points=64)
    streams = [z for name in ("slice", "circle", "disc") for z in pair_weights(plan, name)]
    streams.append(disc_points(plan))
    corpus = default_corpus()
    assert [m.name for m in corpus if m.intrinsic] == ["const_real", "identity", "square",
                                                       "exp_taylor"]
    for m in corpus:
        for unit in (UNIT_E1, ImaginaryUnit(0.6, 0.0, 0.8)):
            s = split(m.series, unit)
            for z in streams:
                v = s.at(z)
                for values in (v, v - s.at(z[::-1].copy()), np.abs(v)):
                    want = np.hypot(np.abs(values[0]), np.abs(values[1]))
                    assert split_modulus(values).tobytes() == want.tobytes(), m.name
