import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicereg.lipschitz import (
    INTERPRETATIONS,
    DegeneratePlan,
    GrowthCheck,
    NormEstimate,
    SamplePlan,
    _conjugated,
    _golden_angles,
    _pair_estimate,
    _quarters,
    _squared_norms,
    _vdc,
    ball_pair_coords,
    boundary_norm,
    bounded_growth_check,
    circle_pair_angles,
    component_estimates,
    derivative_ratio,
    disc_pair_coords,
    disc_points,
    global_norm,
    pair_weights,
    radial_grid,
    ray_grid,
    schwarz_pick_criterion,
    seminorms_N,
    slice_norm,
    slice_pair_coords,
)
import slicereg.lipschitz
from slicereg.majorant import PowerMajorant
from slicereg.poisson import poisson_integral_slice, resolved_cap
from slicereg.quaternion import (
    E1,
    E2,
    ONE,
    UNIT_E1,
    ImaginaryUnit,
    Quaternion,
    conj_array,
    from_array,
    hamilton_mul,
    norm,
    norm_array,
    slice_point,
    slice_points_array,
)
from slicereg.series import (
    _BLOCK,
    SliceSeries,
    cullen_derivative,
    eval_complex,
    evaluate,
    evaluate_batch,
    on_circle,
    split,
    split_modulus,
    symmetrization,
)
from slicereg.verify import default_corpus

I = UNIT_E1
W_HALF = PowerMajorant(0.5)
W_LIN = PowerMajorant(1.0)
IDENT = SliceSeries([0.0, 1.0])
SQUARE = SliceSeries([0.0, 0.0, 1.0])
PLAN = SamplePlan()


# --- plan construction and sampling streams -----------------------------------

def test_plan_validation():
    with pytest.raises(DegeneratePlan):
        SamplePlan(n_pairs=2)
    with pytest.raises(DegeneratePlan):
        SamplePlan(max_radius=1.0)
    with pytest.raises(DegeneratePlan):
        SamplePlan(min_separation=0.0)
    with pytest.raises(DegeneratePlan):
        SamplePlan(min_separation=2.0)  # >= 2 * max_radius


def test_child_rng_deterministic():
    a = PLAN.child_rng(5).normal(size=4)
    b = SamplePlan().child_rng(5).normal(size=4)
    assert np.array_equal(a, b)
    c = SamplePlan(seed=999).child_rng(5).normal(size=4)
    assert not np.array_equal(a, c)


def vdc_by_bits(n, offset=0):
    # the bit-by-bit radical inverse _vdc replaced, kept as the reference
    idx = np.arange(offset, offset + n, dtype=np.int64)
    out = np.zeros(n)
    scale = 0.5
    while idx.any():
        out += scale * (idx & 1)
        idx >>= 1
        scale *= 0.5
    return out


@pytest.mark.parametrize("n", [0, 1, 1000, 16384, 65536])
def test_vdc_keeps_the_bits_of_the_bit_by_bit_sum(n):
    for offset in (0, 1, 3, 7, 255, 256, 2 ** 16 - 1, 2 ** 24 + 5, 2 ** 40):
        got, want = _vdc(n, offset), vdc_by_bits(n, offset)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), offset


def _pair_set(coords, digits=12):
    z1, z2 = coords
    if z1.ndim == 1:
        return set(zip(np.round(z1, digits), np.round(z2, digits)))
    return {tuple(np.round(np.concatenate(p), digits)) for p in zip(z1, z2)}


@pytest.mark.parametrize("stream", [slice_pair_coords, ball_pair_coords, circle_pair_angles])
def test_pair_streams_are_prefix_stable(stream):
    small = _pair_set(stream(SamplePlan(n_pairs=1024)))
    large = _pair_set(stream(SamplePlan(n_pairs=4096)))
    assert small <= large
    assert len(large) > len(small)


def test_pair_streams_respect_plan_bounds():
    z1, z2 = slice_pair_coords(PLAN)
    assert np.max(np.abs(z1)) <= PLAN.max_radius + 1e-12
    assert np.min(np.abs(z1 - z2)) >= PLAN.min_separation - 1e-12
    q1, q2 = ball_pair_coords(PLAN)
    assert np.max(np.linalg.norm(q1, axis=1)) <= PLAN.max_radius + 1e-12
    assert np.min(np.linalg.norm(q1 - q2, axis=1)) >= PLAN.min_separation - 1e-12


def test_disc_points_are_prefix_stable():
    for n in range(4, 40):
        small = set(disc_points(SamplePlan(n_points=n)).tolist())
        assert small <= set(disc_points(SamplePlan(n_points=n + 1)).tolist())


def test_disc_points_cover_origin_and_cap():
    xs = disc_points(PLAN)
    assert np.any(xs == 0.0)
    assert abs(np.max(np.abs(xs)) - PLAN.max_radius) < 1e-12
    capped = disc_points(PLAN, cap=0.5)
    assert np.max(np.abs(capped)) <= 0.5 + 1e-12


# each stream with the arguments of one call, its result as a tuple of arrays
_STREAMS = {
    "disc_pair_coords": lambda plan: disc_pair_coords(plan, 1.0),
    "ball_pair_coords": ball_pair_coords,
    "circle_points": lambda plan: pair_weights(plan, "circle"),
    "circle_weights": lambda plan: pair_weights(plan, "circle", W_HALF, W_LIN),
    "disc_weights": lambda plan: pair_weights(plan, "disc", W_HALF, W_LIN),
    "disc_points": lambda plan: (disc_points(plan, cap=0.5),),
}


@pytest.mark.parametrize("stream", _STREAMS.values(), ids=_STREAMS)
def test_stored_stream_is_read_only_and_equals_a_fresh_build(stream):
    plan = SamplePlan(n_pairs=512, n_points=64)
    arrays = stream(plan)
    assert all(a is b for a, b in zip(arrays, stream(plan)))
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0
    fresh = stream(SamplePlan(n_pairs=512, n_points=64))
    for a, b in zip(arrays, fresh):
        assert a is not b
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_the_circle_stream_stores_its_points_and_no_angles():
    # the angles are read once, to build the points, and never stored
    plan = SamplePlan(n_pairs=512)
    e1, e2 = pair_weights(plan, "circle")
    t1, t2 = circle_pair_angles(plan)
    assert e1.tobytes() == np.exp(1j * t1).tobytes()
    assert e2.tobytes() == np.exp(1j * t2).tobytes()
    store = plan.__dict__["_store"]
    assert list(store) == ["circle_points"]
    assert store["circle_points"][0] is e1 and store["circle_points"][1] is e2


def test_store_leaves_plan_identity_to_its_fields():
    used, fresh = SamplePlan(n_pairs=512), SamplePlan(n_pairs=512)
    slice_pair_coords(used)
    # cap None is max_radius: one stored stream for both spellings
    assert disc_points(used) is disc_points(used, used.max_radius)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert used != SamplePlan(n_pairs=1024)


def ball_pairs_by_rows(plan):
    # the row-major builder of the ball pair stream, kept as the reference
    eps = plan.min_separation
    rho = plan.max_radius
    n_diam, n_unif, n_diag, n_rad = _quarters(plan.n_pairs)

    def unit_rows(v):
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    d = unit_rows(plan.child_rng(21).normal(size=(n_diam, 4)))
    q1_a = rho * d
    q2_a = -(rho * (1.0 - _vdc(n_diam)))[:, None] * d

    g = plan.child_rng(22).normal(size=(n_unif, 8))
    u = plan.child_rng(25).uniform(size=(n_unif, 2))
    q1_b = rho * u[:, :1] ** 0.25 * unit_rows(g[:, :4])
    q2_b = rho * u[:, 1:] ** 0.25 * unit_rows(g[:, 4:])

    g = plan.child_rng(23).normal(size=(n_diag, 8))
    u = plan.child_rng(26).uniform(size=(n_diag, 1))
    base = rho * u ** 0.25 * unit_rows(g[:, :4])
    step_dir = unit_rows(g[:, 4:])
    delta = np.exp(np.log(eps) * (1.0 - _vdc(n_diag)))[:, None]
    q2_c = base + delta * step_dir
    flip = np.linalg.norm(q2_c, axis=1) > rho
    q2_c[flip] = base[flip] - (delta * step_dir)[flip]
    q1_c = base

    d = unit_rows(plan.child_rng(24).normal(size=(n_rad, 4)))
    q1_d = rho * d
    q2_d = ((rho - eps) * _vdc(n_rad))[:, None] * d

    q1 = np.concatenate([q1_a, q1_b, q1_c, q1_d])
    q2 = np.concatenate([q2_a, q2_b, q2_c, q2_d])
    sep = np.linalg.norm(q1 - q2, axis=1)
    keep = (
        (np.linalg.norm(q1, axis=1) <= rho)
        & (np.linalg.norm(q2, axis=1) <= rho)
        & (sep >= eps)
    )
    return q1[keep], q2[keep]


@pytest.mark.parametrize("plan", [
    SamplePlan(n_pairs=512), SamplePlan(n_pairs=4096), SamplePlan(n_pairs=65536),
    SamplePlan(n_pairs=4096, min_separation=0.05, max_radius=0.9, seed=3),
], ids=["512", "4096", "65536", "eps_rho"])
def test_ball_stream_keeps_the_row_major_bits(plan):
    q1, q2 = ball_pair_coords(plan)
    want1, want2 = ball_pairs_by_rows(plan)
    # the pair distances as global_norm takes them from the stream
    sep = norm_array(q1 - q2)
    for got, want in zip((q1, q2, sep), (want1, want2, np.linalg.norm(want1 - want2, axis=1))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # transposed views of C-contiguous component rows
    assert q1.T.flags.c_contiguous and q2.T.flags.c_contiguous


def test_global_norm_keeps_the_row_major_path():
    plan = SamplePlan(n_pairs=65536)
    q1, q2 = ball_pairs_by_rows(plan)
    w = W_HALF(np.linalg.norm(q1 - q2, axis=1))
    for m in default_corpus():
        ratios = norm_array(evaluate_batch(m.series, q1) - evaluate_batch(m.series, q2)) / w
        k = int(np.argmax(ratios))
        est = global_norm(m.series, W_HALF, plan)
        assert est.value == float(ratios[k]), m.name
        assert est.argmax_pair == (from_array(q1[k]), from_array(q2[k])), m.name
        assert est.samples_used == ratios.size, m.name


# --- norm estimators against closed forms --------------------------------------

def test_slice_norm_oracles():
    est = slice_norm(IDENT, W_HALF, I, PLAN)
    assert isinstance(est, NormEstimate)
    # sup |x-y|^(1/2) over the disc, attained at a diameter: sqrt(2)
    assert est.value == pytest.approx(math.sqrt(2.0), rel=0.02)
    assert est.samples_used > 1000
    a, b = est.argmax_pair
    assert norm_array(np.array([np.array(a.components()) - np.array(b.components())]))[0] > 1.9
    # f = q^2 with omega = t: sup |x + y| = 2
    assert slice_norm(SQUARE, W_LIN, I, PLAN).value == pytest.approx(2.0, rel=0.02)
    # constants have zero norm
    assert slice_norm(SliceSeries([Quaternion(2, 1, 0, 3)]), W_HALF, I, PLAN).value == 0.0


def test_global_norm_oracle():
    assert global_norm(IDENT, W_HALF, PLAN).value == pytest.approx(math.sqrt(2.0), rel=0.02)
    assert global_norm(SQUARE, W_LIN, PLAN).value == pytest.approx(2.0, rel=0.02)


def test_component_norm_matches_slice_for_single_component():
    # f = q has F(z) = z, G = 0: the joint norm reduces to the slice norm
    joint = component_estimates(IDENT, W_HALF, W_HALF, I, PLAN)[2]
    plain = slice_norm(IDENT, W_HALF, I, PLAN)
    assert joint.value == pytest.approx(plain.value, rel=1e-12)


def test_component_sandwich_per_pair():
    # max(r1, r2) <= r_full <= r1 + r2 at every sampled pair, as evaluated
    f = SliceSeries([0.2 * E1, ONE, 0.4 * E2])
    z1, z2 = slice_pair_coords(PLAN)
    F, G = split(f, I).C
    d = W_HALF(np.abs(z1 - z2))
    r1 = np.abs(eval_complex(F, z1) - eval_complex(F, z2)) / d
    r2 = np.abs(eval_complex(G, z1) - eval_complex(G, z2)) / d
    r_full = np.hypot(r1, r2)
    assert np.all(np.maximum(r1, r2) <= r_full + 1e-15)
    assert np.all(r_full <= r1 + r2 + 1e-15)
    c1, c2, joint = component_estimates(f, W_HALF, W_HALF, I, PLAN)
    assert max(c1.value, c2.value) <= joint.value + 1e-12
    assert joint.value <= c1.value + c2.value + 1e-12


def test_pythagoras_on_components():
    # identity between the quaternionic and split evaluations, relative to
    # the function scale (the pair difference itself cancels catastrophically
    # at near-diagonal separations)
    f = SliceSeries([0.2 * E1, ONE, 0.4 * E2])
    z1, z2 = slice_pair_coords(PLAN)
    F, G = split(f, I).C
    dF = np.abs(eval_complex(F, z1) - eval_complex(F, z2))
    dG = np.abs(eval_complex(G, z1) - eval_complex(G, z2))
    full = norm_array(
        evaluate_batch(f, slice_points_array(I, z1))
        - evaluate_batch(f, slice_points_array(I, z2))
    )
    scale = max(1.0, float(np.max(norm_array(evaluate_batch(f, slice_points_array(I, z1))))))
    assert np.max(np.abs(full ** 2 - (dF ** 2 + dG ** 2))) <= 1e-12 * scale ** 2


def test_estimates_monotone_in_pairs():
    values = [
        slice_norm(SQUARE, W_LIN, I, SamplePlan(n_pairs=n)).value
        for n in (512, 2048, 8192)
    ]
    assert values[0] <= values[1] + 1e-15
    assert values[1] <= values[2] + 1e-15
    g = [global_norm(SQUARE, W_LIN, SamplePlan(n_pairs=n)).value for n in (1024, 4096)]
    assert g[0] <= g[1] + 1e-15


_CORPUS = default_corpus()
_PAIR_ESTIMATORS = {
    "slice": lambda f, plan: slice_norm(f, W_HALF, I, plan),
    "global": lambda f, plan: global_norm(f, W_HALF, plan),
    "boundary": lambda f, plan: boundary_norm(f, W_HALF, I, plan)[0],
}


@given(member=st.sampled_from(_CORPUS), kind=st.sampled_from(sorted(_PAIR_ESTIMATORS)),
       n=st.integers(4, 600), grow=st.integers(1, 8) | st.integers(1, 600),
       seed=st.integers(0, 2**32 - 1))
@example(member=_CORPUS[3], kind="slice", n=7, grow=1, seed=12345)
@settings(deadline=None, max_examples=80)
def test_estimates_never_decrease_as_pairs_grow(member, kind, n, grow, seed):
    # the prefix-stability promise of the module docstring, for any sizes;
    # small steps cross the sizes where the remainder moves between strata
    estimate = _PAIR_ESTIMATORS[kind]
    small = estimate(member.series, SamplePlan(n_pairs=n, seed=seed)).value
    large = estimate(member.series, SamplePlan(n_pairs=n + grow, seed=seed)).value
    assert large >= small


def test_boundary_norm_oracles():
    est, mod = boundary_norm(IDENT, W_LIN, I, PLAN)
    assert abs(est.value - 1.0) < 1e-12  # isometry on the circle
    assert mod.value < 1e-10  # |f| is constant on the circle


def test_seminorms_oracles():
    # f = q splits into F(z) = z and G = 0
    n1, n2, n3 = seminorms_N(IDENT, W_HALF, I, PLAN, nodes=2048)
    # radial difference sup (1-r)^(1/2) -> 1 and the defect sup matches
    assert n1[0] == pytest.approx(1.0, abs=1e-6)
    assert n2[0] == pytest.approx(1.0, abs=1e-6)
    # same-ray pairs extremize the quotient of the modulus: sqrt(d) <= 1
    assert n3[0] == pytest.approx(1.0, abs=1e-12)
    assert n1[1] == n2[1] == n3[1] == 0.0
    c1, c2, c3 = seminorms_N(SliceSeries([0.3]), W_HALF, I, PLAN, nodes=2048)
    assert c1[0] < 1e-3 and c2[0] == 0.0 and c3[0] == 0.0  # c1 carries quadrature noise


def _seminorms_one_component(fk, omega, plan, nodes):
    """seminorms_N as it was written for one split component fk: one
    Poisson call and one set of streams per component."""
    def modulus(z):
        return np.abs(eval_complex(fk, z))

    boundary_modulus = on_circle(modulus)
    t1, t2 = circle_pair_angles(plan)
    m1, m2 = boundary_modulus(t1), boundary_modulus(t2)
    chord = np.abs(np.exp(1j * t1) - np.exp(1j * t2))
    circle_part = float(np.max(np.abs(m1 - m2) / omega(chord)))

    n_rad = max(16, plan.n_points // 16)
    xs = ray_grid(resolved_cap(plan.max_radius, nodes), n_rad, 8, 2)
    p_vals = poisson_integral_slice(boundary_modulus, xs, nodes)
    n1 = circle_part + float(np.max((p_vals - modulus(xs)) / omega(1.0 - np.abs(xs))))

    r2 = radial_grid(1.0 - plan.min_separation, n_rad)
    zeta = np.exp(1j * _golden_angles(32, offset=9))
    inner = modulus(r2[:, None] * zeta[None, :])
    outer = modulus(zeta)[None, :]
    n2 = circle_part + float(np.max(np.abs(outer - inner) / omega(1.0 - r2)[:, None]))

    z1, z2 = disc_pair_coords(plan, 1.0)
    d3 = modulus(z1) - modulus(z2)
    n3 = float(np.max(np.abs(d3) / omega(np.abs(z1 - z2))))
    return n1, n2, n3


def test_seminorms_N_equals_one_component_reference():
    # stacking F and G changes no bit of either component's functionals
    plan = SamplePlan(n_pairs=256, n_points=64)
    nodes = 512
    for i in (UNIT_E1, ImaginaryUnit.from_vector(1.0, 1.0, 1.0)):
        for m in _CORPUS:
            stacked = seminorms_N(m.series, W_HALF, i, plan, nodes)
            for k, fk in enumerate(split(m.series, i).C):
                want = _seminorms_one_component(fk, W_HALF, plan, nodes)
                assert tuple(n[k] for n in stacked) == want, (m.name, k)


def circle_weights_per_call(plan, *omegas):
    # the circle points and weights as boundary_norm and seminorms_N built
    # them on every call, kept as the reference
    t1, t2 = circle_pair_angles(plan)
    e1, e2 = np.exp(1j * t1), np.exp(1j * t2)
    return (e1, e2, *(w(np.abs(e1 - e2)) for w in omegas))


def boundary_norm_by_values(f, omega, i, plan):
    # boundary_norm as it was written, from the split values on every call,
    # kept as the reference
    z1, z2, w = circle_weights_per_call(plan, omega)
    s = split(f, i)
    v1, v2 = s.at(z1), s.at(z2)
    return (_pair_estimate(split_modulus(v1 - v2) / w, z1, z2, i),
            _pair_estimate(np.abs(split_modulus(v1) - split_modulus(v2)) / w, z1, z2, i))


def _circle_functionals(m, plan, boundary=boundary_norm):
    bounds = boundary(m.series, W_HALF, I, plan)
    return ([(b.value, b.argmax_pair, b.samples_used) for b in bounds],
            [n.tobytes() for n in seminorms_N(m.series, W_HALF, I, plan, 512)])


def test_circle_functionals_equal_a_per_call_recomputation(monkeypatch):
    # both functionals read one stored circle block per member from one
    # plan; a fresh plan per call stores nothing between calls, and the
    # reference boundary_norm evaluates the split values itself
    plan = SamplePlan(n_pairs=512, n_points=64)
    stored = [_circle_functionals(m, plan) for m in _CORPUS]
    real = slicereg.lipschitz.pair_weights

    def pair_weights_per_call(plan, stream, *omegas):
        if stream == "circle":
            return circle_weights_per_call(plan, *omegas)
        return real(plan, stream, *omegas)
    monkeypatch.setattr(slicereg.lipschitz, "pair_weights", pair_weights_per_call)
    fresh = [_circle_functionals(m, SamplePlan(n_pairs=512, n_points=64)) for m in _CORPUS]
    by_values = [_circle_functionals(m, SamplePlan(n_pairs=512, n_points=64),
                                     boundary_norm_by_values) for m in _CORPUS]
    assert stored == fresh == by_values


# --- derivative functionals -----------------------------------------------------

def test_derivative_ratio_oracles():
    full, plus, minus = derivative_ratio(IDENT, W_LIN, I, PLAN)
    assert abs(full.value - 1.0) < 1e-12  # (1-|x|)/(1-|x|) at every sample
    # f' = 1 is a slice-plane value: the minus sandwich doubles it, plus kills it
    assert plus.value < 1e-12
    assert abs(minus.value - 2.0) < 1e-12
    # f = q^2: sup 2|x| = 2 rho
    est2 = derivative_ratio(SQUARE, W_LIN, I, PLAN)[0]
    assert est2.value == pytest.approx(2.0 * PLAN.max_radius, rel=1e-6)
    capped = derivative_ratio(SQUARE, W_LIN, I, PLAN, cap=0.5)[0]
    assert capped.value == pytest.approx(1.0, rel=1e-6)


def test_parallelogram_identity_at_samples():
    f = SliceSeries([0.2 * E1, ONE, 0.4 * E2, 0.1 * Quaternion(1, 1, 1, 1)])
    Fp, Gp = split(cullen_derivative(f), I).C
    xs = disc_points(PLAN)
    a, b = np.abs(eval_complex(Fp, xs)), np.abs(eval_complex(Gp, xs))
    full_sq = 4.0 * (a ** 2 + b ** 2)
    plus, minus = 2.0 * b, 2.0 * a
    assert np.max(np.abs(full_sq - (plus ** 2 + minus ** 2))) <= 1e-12 * max(1.0, full_sq.max())


def test_bounded_growth_oracles():
    origin = slice_points_array(I, [0.0])
    chk = bounded_growth_check(IDENT, origin, I, PLAN)
    assert isinstance(chk, GrowthCheck) and chk.local_sup.shape == (1,)
    assert chk.lhs_quadratic[0] == pytest.approx(0.25, abs=1e-12)
    assert chk.rhs_quadratic[0] == pytest.approx(1.0, rel=1e-6)
    assert chk.sandwich_slack[0] >= -1e-12 and chk.quadratic_slack[0] >= -1e-12
    # constant: lhs_plus = |c + ici|, lhs_minus = |c - ici|, rhs = |c|
    c = Quaternion(0.3, 0.4, 0.1, 0.0)
    chc = bounded_growth_check(SliceSeries([c]), origin, I, PLAN)
    assert chc.lhs_plus[0] == pytest.approx(0.2, abs=1e-12)
    assert chc.lhs_minus[0] == pytest.approx(1.0, abs=1e-12)
    assert chc.local_sup[0] == pytest.approx(0.5099019513592785, rel=1e-12)
    assert chc.sandwich_slack[0] >= 0.0
    with pytest.raises(ValueError):
        bounded_growth_check(IDENT, slice_points_array(I, [1.5]), I, PLAN)


def test_bounded_growth_random_points():
    rng = np.random.default_rng(3)
    f = SliceSeries([Quaternion(*r) for r in rng.normal(size=(4, 4)) * 0.4])
    u = rng.uniform(-0.6, 0.6, size=(20, 2))  # the draws of 20 (real, imag) pairs
    zs = u[:, 0] + 1j * u[:, 1]
    chk = bounded_growth_check(f, slice_points_array(I, zs), I, PLAN)
    assert np.all(chk.sandwich_slack >= -1e-8)
    assert np.all(chk.quadratic_slack >= -1e-8)


@pytest.mark.parametrize("unit", [UNIT_E1, ImaginaryUnit.from_vector(0.3, -1.0, 2.0)],
                         ids=["e1", "non_axis"])
def test_bounded_growth_batch_equals_one_point_calls(unit):
    f = default_corpus()[-1].series
    zs = disc_points(SamplePlan(n_points=64), cap=0.99)[:40]
    batch = bounded_growth_check(f, slice_points_array(unit, zs), unit, PLAN)
    single = [bounded_growth_check(f, slice_points_array(unit, [z]), unit, PLAN) for z in zs]
    for field in ("lhs_plus", "lhs_minus", "local_sup", "lhs_quadratic", "rhs_quadratic",
                  "sandwich_slack", "quadratic_slack"):
        assert np.array_equal(getattr(batch, field),
                              np.concatenate([getattr(c, field) for c in single]))


def bounded_growth_full_array(f, x, i, plan):
    # bounded_growth_check as it was written, with the whole (n, n_points)
    # circle at once, kept as the reference of the blocked local sup
    q = np.asarray(x, dtype=float)
    y = q[:, 1] * i.v1 + q[:, 2] * i.v2 + q[:, 3] * i.v3
    z = q[:, 0] + 1j * y
    r = np.hypot(z.real, z.imag)
    s = split(f, i)

    gap = 1.0 - r
    circle = z[:, None] + gap[:, None] * np.exp(1j * _golden_angles(plan.n_points))
    a1, a2 = (np.abs(eval_complex(c, circle)) for c in s.C)
    m1, m2 = a1.max(axis=1), a2.max(axis=1)
    local_sup = np.max(np.hypot(a1, a2), axis=1)

    values, slopes = s.at(z), s.derivative().at(z)
    f1, f2 = np.hypot(values.real, values.imag)
    d1, d2 = np.hypot(slopes.real, slopes.imag)
    return GrowthCheck(gap * d2 + 2.0 * f2, gap * d1 + 2.0 * f1, local_sup,
                       0.25 * gap * gap * (d1 * d1 + d2 * d2) + f1 * f1 + f2 * f2,
                       (r - 1.0) * (d1 * f1 + d2 * f2) + m1 * m1 + m2 * m2)


@pytest.mark.parametrize("n_points, n_rows", [
    (64, 100),  # one partial block of all 100 rows
    (2500, 100),  # 3 rows per block, which do not divide 100
    (_BLOCK + 5, 3),  # one row per block, each row longer than a block
], ids=["one_block", "ragged_blocks", "row_per_block"])
@pytest.mark.parametrize("unit", [UNIT_E1, ImaginaryUnit.from_vector(0.3, -1.0, 2.0)],
                         ids=["e1", "non_axis"])
def test_blocked_growth_sup_keeps_the_full_array_bits(n_points, n_rows, unit):
    plan = SamplePlan(n_points=n_points)
    zs = disc_points(SamplePlan(n_points=512), cap=0.99)[:n_rows]
    x = slice_points_array(unit, zs)
    for m in _CORPUS:
        got = bounded_growth_check(m.series, x, unit, plan)
        want = bounded_growth_full_array(m.series, x, unit, plan)
        for field in ("lhs_plus", "lhs_minus", "local_sup", "lhs_quadratic",
                      "rhs_quadratic"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), \
                (m.name, field)


@pytest.mark.parametrize("point, message", [
    ((math.nan, 0.2, 0.0, 0.0), "open disc"),  # on the plane of e1, nowhere in its disc
    ((0.1, 0.2, math.nan, 0.0), "slice plane"),  # off the plane
    ((0.1, math.nan, 0.0, 0.0), None),  # NaN along e1 fails either guard
    ((math.inf, 0.2, 0.0, 0.0), "open disc"),  # on the plane, outside every disc
    ((0.1, 0.2, 0.0, -math.inf), "slice plane"),  # inf * 0 in the projection
    ((0.1, math.inf, 0.0, 0.0), "slice plane"),  # inf - inf in the distance
    ((0.1, 0.2, 1e300, 0.0), "slice plane"),  # the distance overflows to inf
], ids=["real_part", "off_plane", "along_unit", "inf_real_part", "inf_off_plane",
        "inf_along_unit", "huge_off_plane"])
def test_bounded_growth_refuses_a_nan_component(point, message):
    with pytest.raises(ValueError, match=message):
        bounded_growth_check(IDENT, np.array([point]), I, PLAN)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bounded_growth_refuses_a_non_finite_component_off_axis(value):
    unit = ImaginaryUnit.from_vector(0.3, -1.0, 2.0)
    base = slice_points_array(unit, np.array([0.1 + 0.2j]))[0]
    for k in range(4):
        point = base.copy()
        point[k] = value
        with pytest.raises(ValueError):
            bounded_growth_check(IDENT, point[None], unit, PLAN)


# --- Schwarz-Pick functional ------------------------------------------------------

def test_schwarz_pick_identity_function():
    rep = schwarz_pick_criterion(IDENT, W_HALF, I, PLAN)
    assert rep.contract_ok
    assert rep.n_used > 400
    assert rep.derivative_constant <= rep.hypothesis_constant * 1.25 + 1e-12
    rep2 = schwarz_pick_criterion(IDENT, W_HALF, I, PLAN, interpretation="pointwise")
    assert rep2.contract_ok
    with pytest.raises(ValueError):
        schwarz_pick_criterion(IDENT, W_HALF, I, PLAN, interpretation="other")


def test_schwarz_pick_constant_reports_empty():
    rep = schwarz_pick_criterion(SliceSeries([0.4]), W_HALF, I, PLAN)
    assert rep.n_used == 0
    assert rep.n_skipped > 0
    assert rep.hypothesis_constant == 0.0


def _aux_coefficients(f):
    """The real coefficients of the series reading's auxiliary 1 - f^s."""
    return (SliceSeries([1.0]) - symmetrization(f)).array[:, 0]


def _series_conjugation(f, p):
    """The series reading's former step: p conjugated by (1 - f^s)(p), and
    the quaternion mask of rows where (1 - f^s)(p) vanishes."""
    gp = evaluate_batch(SliceSeries.from_real(_aux_coefficients(f)), p)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (_conjugated(gp, p),
                np.float_power(np.sqrt(_squared_norms(gp)), 2.0) <= 1e-9)


def test_displaced_point_interpretations_agree_at_real_x():
    # real coefficients + real x keep every factor in R, where conjugating
    # by 1 - f^s moves nothing; |f| < 1 on the disc leaves both readings
    # the same skip mask, so their reports agree to the bit
    f = SliceSeries.from_real([0.1, 0.5, 0.0, 0.2])
    x = slice_points_array(I, np.array([0.3, -0.45, 0.6]))
    p = _conjugated(evaluate_batch(cullen_derivative(f), x), x)
    moved, singular = _series_conjugation(f, p)
    assert not singular.any()
    assert np.max(norm_array(moved - p)) < 1e-12
    series, pointwise = (schwarz_pick_criterion(f, W_HALF, I, PLAN, reading)
                         for reading in INTERPRETATIONS)
    assert series == pointwise
    assert series.n_skipped == 0


def test_singular_point_masked_at_critical_point():
    # f = q^2 has f'(0) = 0: the displaced point is undefined at the
    # origin, and only there, under both readings
    plan = SamplePlan(n_points=64)
    xs = disc_points(plan)
    at_origin = int(np.sum(xs == 0.0))
    assert at_origin > 0
    for reading in INTERPRETATIONS:
        rep = schwarz_pick_criterion(SQUARE, W_HALF, I, plan, reading)
        assert (rep.n_skipped, rep.n_used) == (at_origin, xs.size - at_origin)


@pytest.mark.parametrize("n_points", [512, 2048])
@pytest.mark.parametrize("unit", [UNIT_E1, ImaginaryUnit.from_vector(1.0, 1.0, 1.0)],
                         ids=["e1", "i111"])
def test_series_conjugation_is_the_identity(n_points, unit):
    # 1 - f^s has real coefficients: its value at p commutes with p, and
    # its modulus at p = f'(x)^-1 x f'(x) is its modulus at the slice
    # coordinate z of x, so the series reading needs neither the
    # conjugation nor a quaternion evaluation at p
    xs = disc_points(SamplePlan(n_points=n_points))
    x = slice_points_array(unit, xs)
    for m in default_corpus():
        s = split(m.series, unit)
        fx, fpx = s.values(xs), s.derivative().values(xs)
        defined = ((np.sqrt(_squared_norms(fpx)) > 1e-6)
                   & (np.sqrt(_squared_norms(fx)) > 1e-9))
        p = _conjugated(fpx[defined], x[defined])
        moved, old_mask = _series_conjugation(m.series, p)
        new_mask = np.float_power(
            np.abs(eval_complex(_aux_coefficients(m.series), xs[defined])), 2.0) <= 1e-9
        assert np.array_equal(old_mask, new_mask), m.name
        kept = ~new_mask
        conj_fx = conj_array(fx[defined][kept])
        old = _conjugated(conj_fx, moved[kept])
        new = _conjugated(conj_fx, p[kept])
        # up to 7.4e-15 where |1 - f^s| is near 0.02 and the rounding of its
        # quaternion Horner value tilts it off the slice of p (square,
        # cubic_basis)
        assert np.all(norm_array(old - new) <= 1e-14 * norm_array(new)), m.name


def _schwarz_reference(f, omega, i, plan, interpretation):
    """The criterion point by point with scalar quaternions: (hyp, der,
    used, skipped)."""
    xs = disc_points(plan)
    s = split(f, i)
    fvals, fpvals = s.values(xs), s.derivative().values(xs)
    M = float(np.max(norm_array(fvals)))
    aux = _aux_coefficients(f)

    def conjugated(c, q):
        return hamilton_mul(hamilton_mul(c.inverse(), q), c)

    hyp = der = 0.0
    used = skipped = 0
    for k, z in enumerate(xs):
        fx, fpx = from_array(fvals[k]), from_array(fpvals[k])
        if norm(fpx) <= 1e-6 or norm(fx) <= 1e-9:
            skipped += 1
            continue
        if interpretation == "series":
            gz = 0j
            for a in aux[::-1]:
                gz = gz * complex(z) + a
            if abs(gz) ** 2 <= 1e-9:
                skipped += 1
                continue
        elif abs(1.0 - norm(fx) ** 2) <= 1e-9:
            skipped += 1
            continue
        p = conjugated(fpx, slice_point(i, complex(z)))
        fxt = evaluate(f, conjugated(fx.conjugate(), p))
        gap = 1.0 - abs(z)
        w = omega(gap)
        hyp = max(hyp, norm(Quaternion(M * M) - hamilton_mul(fx.conjugate(), fxt))
                  / ((1.0 + abs(z)) * w))
        der = max(der, M * norm(fpx) * gap / w)
        used += 1
    return hyp, der, used, skipped


# flat: |f'(x)| = 2e-6 |x| crosses the derivative floor 1e-6 at |x| = 0.5
_SCHWARZ_MEMBERS = {**{m.name: m.series for m in default_corpus()},
                    "flat": SliceSeries([0.5, 0.0, 1e-6])}


@pytest.mark.parametrize("name", ["identity", "square", "const_real", "random_0", "exp_taylor",
                                  "flat"])
@pytest.mark.parametrize("interpretation", ["series", "pointwise"])
def test_schwarz_report_equals_point_by_point_reference(name, interpretation):
    f = _SCHWARZ_MEMBERS[name]
    plan = SamplePlan(n_points=64)
    rep = schwarz_pick_criterion(f, W_HALF, I, plan, interpretation)
    ref = _schwarz_reference(f, W_HALF, I, plan, interpretation)
    assert (rep.hypothesis_constant, rep.derivative_constant, rep.n_used, rep.n_skipped) == ref
    if name in ("square", "const_real", "flat"):
        assert rep.n_skipped > 0
    if name == "flat":
        assert rep.n_used > 0
