"""The kernels that work _BLOCK pairs or points at a time, against the
full-array formulas they replaced, kept here as the oracles: every bit of
every value and every argmax must agree.

Each stream below is longer than two blocks and ends in a ragged block;
one-point calls are checked too. Random points come from a fixed seed.
"""

import math

import numpy as np
import pytest

from slicereg.cli import RunConfig
from slicereg.lipschitz import (
    NormEstimate,
    SamplePlan,
    _disc_pairs,
    _golden_angles,
    _pair_moduli,
    _quarters,
    _vdc,
    ball_pair_coords,
    blocked_argmax,
    blocked_max,
    component_estimates,
    derivative_ratio,
    disc_points,
    global_norm,
    pair_weights,
    slice_norm,
)
from slicereg.majorant import PowerMajorant
from slicereg.poisson import poisson_integral_slice, resolved_cap
from slicereg.quaternion import (
    UNIT_E1,
    ImaginaryUnit,
    from_array,
    norm_array,
    slice_point,
)
from slicereg.series import (
    _BLOCK,
    cullen_derivative,
    evaluate_batch,
    on_circle,
    split,
    split_modulus,
)
from slicereg.verify import (
    FunctionRecord,
    _ball_derivative_ratios,
    default_corpus,
    verify_modulus_membership,
)

CORPUS = default_corpus()
UNITS = (UNIT_E1, ImaginaryUnit.from_vector(0.3, -1.0, 2.0))
W = PowerMajorant(0.5)
W2 = PowerMajorant(0.75)
RAGGED = 2 * _BLOCK + 700  # two full blocks and a ragged third


def _estimate(ratios, z1, z2, i):
    # the sampled sup as it was taken, by np.argmax over all pairs at once
    k = int(np.argmax(ratios))
    return NormEstimate(float(ratios[k]),
                        (slice_point(i, complex(z1[k])), slice_point(i, complex(z2[k]))),
                        int(ratios.size))


def _moduli_full(f, i, z1, z2):
    # the (7, N) block as it was built, all pairs at once, in its old row
    # order: |dF|, |dG|, their hypot, |F|, |G| at z1, |F|, |G| at z2
    s = split(f, i)
    out = np.empty((7, z1.size))
    v1, v2 = s.at(z1), s.at(z2)
    np.abs(v1, out=out[3:5])
    np.abs(v2, out=out[5:])
    v1 -= v2
    np.abs(v1, out=out[:2])
    np.hypot(out[0], out[1], out=out[2])
    return out


# the old block's rows in the order of the new one
_NEW_ORDER = [2, 3, 4, 5, 6, 0, 1]


def _random_pairs(n, seed=7):
    rng = np.random.default_rng(seed)
    z = 0.995 * np.sqrt(rng.uniform(size=(2, n))) * np.exp(2j * np.pi * rng.uniform(size=(2, n)))
    return z[0], z[1]


@pytest.mark.parametrize("n", [1, 5, _BLOCK, RAGGED])
@pytest.mark.parametrize("rows", [1, 5, 7])
def test_pair_moduli_keeps_the_full_array_bits(n, rows):
    z1, z2 = _random_pairs(n)
    for i in UNITS:
        for m in CORPUS:
            got = _pair_moduli(m.series, i, z1, z2, rows)
            want = _moduli_full(m.series, i, z1, z2)[_NEW_ORDER[:rows]]
            assert got.shape == (rows, n)
            assert got.tobytes() == want.tobytes(), (m.name, rows)


def _values_with_nans(n, rng):
    v = rng.normal(size=n)
    v[rng.integers(n, size=3)] = v.max() + 1.0  # a tied maximum in up to three blocks
    return v


@pytest.mark.parametrize("n", [1, 7, _BLOCK, _BLOCK + 1, RAGGED])
def test_blocked_maxima_are_np_max_and_np_argmax(n):
    rng = np.random.default_rng(n)
    cases = [rng.normal(size=n), _values_with_nans(n, rng), np.full(n, -math.inf)]
    for nan_at in sorted({0, n // 2, n - 1}):
        v = _values_with_nans(n, rng)
        v[nan_at] = math.nan
        v[-1] = math.nan if nan_at == n - 1 else v.max() + 2.0  # a larger value after the NaN
        cases.append(v)
    for v in cases:
        k, value = blocked_argmax(lambda b: v[b], n)
        assert k == int(np.argmax(v))
        assert np.array_equal(value, v[k], equal_nan=True)
        assert np.array_equal(blocked_max(lambda b: v[b], n), np.max(v), equal_nan=True)
        stacked = np.stack([v, -v])
        assert np.array_equal(blocked_max(lambda b: stacked[:, b], n),
                              np.max(stacked, axis=-1), equal_nan=True)


def test_a_nan_after_the_first_block_wins_the_blocked_maxima():
    # a Python max over the block maxima would keep 1.0, the first one
    v = np.zeros(RAGGED)
    v[3] = 1.0
    v[_BLOCK + 11] = math.nan
    assert math.isnan(blocked_max(lambda b: v[b], v.size))
    assert blocked_argmax(lambda b: v[b], v.size)[0] == _BLOCK + 11
    assert max(np.max(v[:_BLOCK]), np.max(v[_BLOCK:])) == 1.0


def test_slice_estimators_keep_the_full_array_sups():
    plan = SamplePlan(n_pairs=3 * _BLOCK)
    z1, z2, w, w2 = pair_weights(plan, "slice", W, W2)
    assert z1.size > 2 * _BLOCK and z1.size % _BLOCK
    for i in UNITS:
        for m in CORPUS:
            old = _moduli_full(m.series, i, z1, z2)
            r1, r2 = old[0] / w, old[1] / w2
            assert slice_norm(m.series, W, i, plan) == _estimate(old[2] / w, z1, z2, i)
            assert component_estimates(m.series, W, W2, i, plan) == tuple(
                _estimate(r, z1, z2, i) for r in (r1, r2, np.hypot(r1, r2)))
            plan.drop(m.series)


def _global_full(f, omega, plan):
    q1, q2 = ball_pair_coords(plan)
    diff = evaluate_batch(f, q1)
    diff -= evaluate_batch(f, q2)
    ratios = norm_array(diff) / omega(norm_array(q1 - q2))
    k = int(np.argmax(ratios))
    return NormEstimate(float(ratios[k]), (from_array(q1[k]), from_array(q2[k])),
                        int(ratios.size))


def test_global_norm_keeps_the_full_array_sup():
    plan = SamplePlan(n_pairs=RAGGED)
    assert len(ball_pair_coords(plan)[0]) % _BLOCK
    for m in CORPUS:
        assert global_norm(m.series, W, plan) == _global_full(m.series, W, plan), m.name


def test_derivative_ratio_keeps_the_full_array_sups():
    plan = SamplePlan(n_points=_BLOCK + 300)
    xs = disc_points(plan)
    gap = 1.0 - np.abs(xs)
    for i in UNITS:
        for m in CORPUS:
            comps = split(cullen_derivative(m.series), i).at(xs)
            want = tuple(_estimate(v * gap / W(gap), xs, xs, i) for v in
                         (split_modulus(comps), 2.0 * np.abs(comps[1]), 2.0 * np.abs(comps[0])))
            assert derivative_ratio(m.series, W, i, plan) == want, m.name


def _ball_ratios_full(fp, qs, gaps, wq, i):
    g_ratio = float(np.max(np.linalg.norm(evaluate_batch(fp, qs), axis=1) * gaps / wq))
    sp = split(fp, i)
    proj = qs[:, 0] + 1j * np.linalg.norm(qs[:, 1:], axis=1)
    pvals = np.maximum(sp.modulus(proj), sp.modulus(proj.conj()))
    return g_ratio, float(np.max(pvals * gaps / wq))


def test_ball_derivative_ratios_keep_the_full_array_sups():
    qs = ball_pair_coords(SamplePlan(n_pairs=RAGGED))[0]
    gaps = 1.0 - np.linalg.norm(qs, axis=1)
    wq = W(gaps)
    for i in UNITS:
        for m in CORPUS:
            fp = cullen_derivative(m.series)
            assert (_ball_derivative_ratios(fp, qs, gaps, wq, i)
                    == _ball_ratios_full(fp, qs, gaps, wq, i)), m.name
            one = slice(len(qs) - 1, None)
            assert (_ball_derivative_ratios(fp, qs[one], gaps[one], wq[one], i)
                    == _ball_ratios_full(fp, qs[one], gaps[one], wq[one], i)), m.name


def _membership_full(mods, w, tol=1e-12):
    # modulus_membership's values as they were taken, all pairs at once,
    # from the old (7, N) block
    dfg, at_z1, at_z2 = mods[:2], mods[3:5], mods[5:]
    full = split_modulus(dfg)
    floor = tol * (1.0 + float(np.max(full)))
    mod = np.abs(split_modulus(at_z1) - split_modulus(at_z2))
    s_minus, s_plus = 2.0 * np.abs(at_z1 - at_z2)
    return {"reverse_triangle_violation": float(np.max(mod - full)),
            "sandwich_vs_double_violation": float(np.max(np.maximum(s_minus, s_plus)
                                                         - 2.0 * full)),
            "modulus_norm": float(np.max(mod / w)),
            "function_norm": float(np.max(full / w))}, floor


def test_modulus_membership_keeps_the_full_array_values():
    config = RunConfig(n_pairs=RAGGED, n_points=64, nodes=512)
    report = verify_modulus_membership(config)
    plan = config.plan
    for m in config.corpus:
        rec = FunctionRecord(m.name)
        report.check(rec, m)
        z1, z2, w = pair_weights(plan, "slice", config.omega)
        want, floor = _membership_full(_moduli_full(m.series, config.i, z1, z2), w)
        assert rec.checks == want and rec.passed, m.name
        assert rec.bounds["reverse_triangle_violation"][1] == floor
        plan.drop(m.series)


def _poisson_full(u, zs, nodes):
    # poisson_integral_slice as it was written, with the baby and giant
    # powers alive together and the giant step multiplied out of place
    zs = np.asarray(zs, dtype=complex)
    vals = np.asarray(u(2.0 * np.pi * np.arange(nodes) / nodes), dtype=float)
    rows = vals.reshape(-1, nodes)
    s = math.isqrt(nodes - 1) + 1
    g = -(-nodes // s)
    coef = np.zeros((len(rows), g * s), dtype=complex)
    coef[:, :nodes] = np.fft.fft(rows) / nodes
    z = zs.ravel()[:, None]
    baby = z ** np.arange(s)
    giant = (z ** s) ** np.arange(g + 1)
    blocks = baby @ coef.reshape(-1, g, s).transpose(0, 2, 1)
    a = np.sum(blocks * giant[:, :g], axis=-1)
    z_n = giant[:, nodes // s] * baby[:, nodes % s]
    means = 2.0 * (a / (1.0 - z_n)).real - coef[:, :1].real
    return means.reshape(vals.shape[:-1] + zs.shape)


@pytest.mark.parametrize("nodes", [16, 17, 1000, 2048, 4096])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_poisson_integral_slice_keeps_its_bits(nodes, k):
    cap = resolved_cap(1.0, nodes)
    rng = np.random.default_rng(nodes + k)
    zs = cap * np.sqrt(rng.uniform(size=700)) * np.exp(2j * np.pi * rng.uniform(size=700))
    zs[:2] = (0.0, cap)
    s = split(CORPUS[-1].series, UNITS[1])

    def u(t):
        rows = np.abs(s.at(np.exp(1j * t)))
        return np.stack([rows[0], rows[1], np.exp(np.cos(t))])[:k]

    data = (lambda t: u(t)[0]) if k == 1 else u
    for points in (zs, zs[3], zs[3:4], zs.reshape(35, 20)):
        got = poisson_integral_slice(data, points, nodes)
        want = _poisson_full(data, points, nodes)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # on_circle data of the member steps, over the N1 grid
    xs = zs[:256]
    moduli = on_circle(lambda z: np.abs(s.at(z)))
    assert (poisson_integral_slice(moduli, xs, nodes).tobytes()
            == _poisson_full(moduli, xs, nodes).tobytes())


def _disc_pairs_full(plan, cap):
    # _disc_pairs as it was written: each stratum its own arrays, then
    # concatenated
    eps = plan.min_separation
    n_diam, n_unif, n_diag, n_rad = _quarters(plan.n_pairs)
    th = _golden_angles(n_diam)
    r2 = cap * (1.0 - _vdc(n_diam))
    z1_a, z2_a = cap * np.exp(1j * th), -r2 * np.exp(1j * th)
    u = plan.child_rng(11).uniform(size=(n_unif, 4))
    z1_b = cap * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    z2_b = cap * np.sqrt(u[:, 2]) * np.exp(2j * np.pi * u[:, 3])
    u = plan.child_rng(12).uniform(size=(n_diag, 3))
    z1_c = cap * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    delta = np.exp(np.log(eps) * (1.0 - _vdc(n_diag)))
    step = delta * np.exp(2j * np.pi * u[:, 2])
    z2_c = z1_c + step
    flip = np.abs(z2_c) > cap
    z2_c[flip] = z1_c[flip] - step[flip]
    th = _golden_angles(n_rad, offset=7)
    r_in = (cap - eps) * _vdc(n_rad)
    z1_d, z2_d = cap * np.exp(1j * th), r_in * np.exp(1j * th)
    z1 = np.concatenate([z1_a, z1_b, z1_c, z1_d])
    z2 = np.concatenate([z2_a, z2_b, z2_c, z2_d])
    keep = (np.abs(z1) <= cap) & (np.abs(z2) <= cap) & (np.abs(z1 - z2) >= eps)
    return z1[keep], z2[keep]


@pytest.mark.parametrize("n_pairs", [4, 5, 6, 7, 64, 1001, RAGGED])
@pytest.mark.parametrize("cap", [0.995, 1.0, 0.5])
def test_disc_pairs_keep_their_bits(n_pairs, cap):
    plan = SamplePlan(n_pairs=n_pairs, seed=n_pairs)
    for got, want in zip(_disc_pairs(plan, cap), _disc_pairs_full(plan, cap)):
        assert got.tobytes() == want.tobytes()
