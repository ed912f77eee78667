"""Which defects the property suites catch.

Each defect scales one estimator's result (by 2, 1/2, 25 or inf, or by
1 + 1e-6 at one slice unit) at the name slicereg.verify reads, scales the
end moduli of the pair block modulus_membership reads, shrinks one sample
stream of slicereg.lipschitz into half its radius, or breaks the split
layer, and then runs every suite at a small plan. A caught defect must
fail exactly its named suites, and in them exactly the check labels
LABELS names. A survivor passes every suite; it is listed with the
reason no check sees it and, in NEEDS, the check labels whose bound
would see it, and moves to CAUGHT when a check that kills it lands.
Every check label a run bounds is failed by some caught defect or
listed in UNFAILED with the reason none can fail it. A window is never
widened, nor the corpus or a seed changed, to kill one.
"""

import dataclasses
import math
import re

import pytest

import slicereg.lipschitz
import slicereg.verify
from slicereg.cli import RunConfig
from slicereg.lipschitz import NormEstimate
from slicereg.series import SplitSeries

SMALL = dict(n_pairs=64, n_points=16, nodes=64)


def _scaled(result, factor):
    if isinstance(result, NormEstimate):
        return dataclasses.replace(result, value=result.value * factor)
    if isinstance(result, tuple):
        return tuple(_scaled(r, factor) for r in result)
    return result * factor


def _scale(name, factor, module=slicereg.verify):
    def apply(monkeypatch):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, **kwargs: _scaled(real(*args, **kwargs), factor))
    return apply


def _scale_at_k(name, factor):
    """Scale the result only where the estimator runs at the run's unit k."""
    def apply(monkeypatch):
        real = getattr(slicereg.verify, name)
        k = RunConfig(**SMALL).k

        def mutant(f, omega, i, plan):
            result = real(f, omega, i, plan)
            return _scaled(result, factor) if i == k else result
        monkeypatch.setattr(slicereg.verify, name, mutant)
    return apply


def _scale_moduli_at_z1(factor):
    """Scale the |F| and |G| rows at z1 of the pair block verify reads; the
    stored block is copied, so the other readers keep the true one."""
    def apply(monkeypatch):
        real = slicereg.verify.pair_samples

        def mutant(*args, **kwargs):
            z1, z2, mods, *ws = real(*args, **kwargs)
            mods = mods.copy()
            mods[1:3] *= factor
            return (z1, z2, mods, *ws)
        monkeypatch.setattr(slicereg.verify, "pair_samples", mutant)
    return apply


def _break_split(defect):
    def apply(monkeypatch):
        real = SplitSeries.at
        monkeypatch.setattr(SplitSeries, "at", lambda self, z: defect(real(self, z)))
    return apply


def _zero_g(values):
    values[1] = 0.0
    return values


def _scale_f(factor):
    def defect(values):
        values[0] *= factor
        return values
    return defect


CAUGHT = {
    "slice_norm_x2": (_scale("slice_norm", 2.0), {"intrinsic_invariance"}),
    "slice_norm_half": (_scale("slice_norm", 0.5),
                        {"algebraic_closure", "intrinsic_invariance", "norm_equivalences"}),
    "component_estimates_x2": (_scale("component_estimates", 2.0), {"intrinsic_invariance"}),
    "component_estimates_half": (_scale("component_estimates", 0.5),
                                 {"algebraic_closure", "intrinsic_invariance"}),
    # no check passes on a non-finite value, nor on a ratio over an infinite bound
    "component_estimates_inf": (_scale("component_estimates", math.inf),
                                {"algebraic_closure", "derivative_characterizations",
                                 "inclusion_chain", "intrinsic_invariance"}),
    "seminorms_N_x2": (_scale("seminorms_N", 2.0), {"norm_equivalences"}),
    "poisson_integral_slice_x2": (_scale("poisson_integral_slice", 2.0), {"cone_corollary"}),
    "split_modulus_half": (_scale("split_modulus", 0.5), {"modulus_membership"}),
    "split_modulus_x2": (_scale("split_modulus", 2.0), {"algebraic_closure"}),
    "split_rows_swapped": (_break_split(lambda values: values[::-1]), {"intrinsic_invariance"}),
    "split_g_row_zeroed": (_break_split(_zero_g), {"derivative_characterizations",
                                                   "inclusion_chain", "slice_independence"}),
    # just outside the K = 20 window; norm_equivalences takes its exact
    # |F|^2 defect from sq_defect_sup, not from this power-1 sup
    "_component_defect_sup_x25": (_scale("_component_defect_sup", 25.0),
                                  {"poisson_characterization"}),
    # an infinite defect constant makes the cone's bound infinite: its
    # excess reads -inf, so only the constant's own check can fail
    "_component_defect_sup_inf": (_scale("_component_defect_sup", math.inf),
                                  {"cone_corollary", "poisson_characterization"}),
    # slice pairs inside radius rho/2: three members leave the K = 20 window
    "slice_pairs_half": (_scale("slice_pair_coords", 0.5, slicereg.lipschitz),
                         {"norm_equivalences"}),
    "split_F_rel_1e-6": (_break_split(_scale_f(1.0 + 1e-6)), {"derivative_characterizations"}),
    # an error above rounding at one unit: an intrinsic member's norms on
    # two slices agree to 1e-10
    "slice_norm_at_k_rel_1e-6": (_scale_at_k("slice_norm", 1.0 + 1e-6),
                                 {"intrinsic_invariance", "slice_independence"}),
    "moduli_at_z1_rel_1e-6": (_scale_moduli_at_z1(1.0 + 1e-6), {"modulus_membership"}),
}

# the check labels each caught defect fails, suite by suite
LABELS = {
    "slice_norm_x2": {("intrinsic_invariance", "component_vs_slice")},
    "slice_norm_half": {("algebraic_closure", "linear_closure_violation"),
                        ("intrinsic_invariance", "component_vs_slice"),
                        ("norm_equivalences", "max_over_min")},
    "component_estimates_x2": {("intrinsic_invariance", "component_vs_slice")},
    "component_estimates_half": {("algebraic_closure", "combine_component1_violation"),
                                 ("algebraic_closure", "combine_component2_violation"),
                                 ("intrinsic_invariance", "component_vs_slice")},
    "component_estimates_inf": {("algebraic_closure", "combine_component1_violation"),
                                ("algebraic_closure", "combine_component2_violation"),
                                ("derivative_characterizations", "mixed_bound_constant"),
                                ("inclusion_chain", "global_over_6c3"),
                                ("intrinsic_invariance", "component_vs_slice"),
                                ("intrinsic_invariance", "second_component")},
    "seminorms_N_x2": {("norm_equivalences", "max_over_min")},
    "poisson_integral_slice_x2": {("cone_corollary", "aligned_excess")},
    "split_modulus_half": {("modulus_membership", "sandwich_vs_double_violation")},
    "split_modulus_x2": {("algebraic_closure", "linear_closure_violation")},
    "split_rows_swapped": {("intrinsic_invariance", "component_vs_slice"),
                           ("intrinsic_invariance", "second_component")},
    "split_g_row_zeroed": {("derivative_characterizations", "global_derivative_ratio"),
                           ("inclusion_chain", "global_over_6c3"),
                           ("slice_independence", "ratio")},
    "_component_defect_sup_x25": {("poisson_characterization", "defect_over_lip")},
    "_component_defect_sup_inf": {("cone_corollary", "defect_constant"),
                                  ("poisson_characterization", "defect_over_lip"),
                                  ("poisson_characterization", "defect_sup")},
    "slice_pairs_half": {("norm_equivalences", "max_over_min")},
    "split_F_rel_1e-6": {("derivative_characterizations", "growth_quadratic_slack"),
                         ("derivative_characterizations", "growth_sandwich_slack")},
    "slice_norm_at_k_rel_1e-6": {("intrinsic_invariance", "slice_gap"),
                                 ("slice_independence", "intrinsic_gap")},
    "moduli_at_z1_rel_1e-6": {("modulus_membership", "modulus_norm"),
                              ("modulus_membership", "reverse_triangle_violation"),
                              ("modulus_membership", "sandwich_vs_double_violation")},
}

FINITE_ONLY = ("finite-only: the check has no bound, so only a non-finite value fails it, "
               "until a closed form or a certified sup gives it one")
POSITIVITY = ("positivity: the lower side asks a nonconstant member's functional to exceed "
              "1e-12 * max(1, the largest of the five), which a factor 2 or 1/2 keeps")

# the check labels no caught defect fails, with the reason
UNFAILED = {
    ("inclusion_chain", "slice_sum_norm"): FINITE_ONLY,
    ("derivative_characterizations", "ratio_full"): FINITE_ONLY,
    ("derivative_characterizations", "ratio_plus"): FINITE_ONLY,
    ("derivative_characterizations", "ratio_minus"): FINITE_ONLY,
    ("poisson_characterization", "boundary_modulus_norm"): FINITE_ONLY,
    ("poisson_characterization", "slice_norm"): FINITE_ONLY,
    ("norm_equivalences", "slice_sq"): POSITIVITY,
    ("norm_equivalences", "n1_sum"): POSITIVITY,
    ("norm_equivalences", "n2_sum"): POSITIVITY,
    ("norm_equivalences", "n3_sum"): POSITIVITY,
    ("norm_equivalences", "poisson_sq_defect"): POSITIVITY,
}

ONE_SIDED_DERIVATIVE = ("derivative_characterizations checks upper sides only: ratio_full, "
                        "ratio_plus and ratio_minus need be finite and mixed <= 6*C(omega)")
BOUNDARY_FINITE = "poisson_characterization only asks boundary_modulus_norm to be finite"
WINDOWS = ("the K = 20 window of defect_over_lip holds a factor 2, defect_sup and the cone's "
           "defect_constant are finite-only, and the cone's aligned_excess <= 0 is one-sided")

SURVIVORS = {
    "global_norm_x2": (_scale("global_norm", 2.0),
                       "one-sided: global_over_6c3 <= 1 has room for a factor 2, and no "
                       "check bounds the estimate, recorded as global, from above"),
    "global_norm_half": (_scale("global_norm", 0.5),
                         "no check bounds global from below: global_over_6c3 <= 1 "
                         "is one-sided, and slice_sum_norm is finite-only until a closed "
                         "form or a certified sup gives it a bound"),
    "derivative_ratio_x2": (_scale("derivative_ratio", 2.0), ONE_SIDED_DERIVATIVE),
    "derivative_ratio_half": (_scale("derivative_ratio", 0.5), ONE_SIDED_DERIVATIVE),
    "boundary_norm_x2": (_scale("boundary_norm", 2.0), BOUNDARY_FINITE),
    "boundary_norm_half": (_scale("boundary_norm", 0.5), BOUNDARY_FINITE),
    "_component_defect_sup_x2": (_scale("_component_defect_sup", 2.0), WINDOWS),
    "_component_defect_sup_half": (_scale("_component_defect_sup", 0.5), WINDOWS),
    "seminorms_N_half": (_scale("seminorms_N", 0.5),
                         "the K = 20 window: max_over_min stays inside it, and the "
                         "positivity checks n1_sum, n2_sum and n3_sum are one-sided"),
    "poisson_integral_slice_half": (_scale("poisson_integral_slice", 0.5),
                                    "one-sided: the cone's aligned_excess bounds the "
                                    "Poisson mean from above only"),
    "ball_pairs_half": (_scale("_ball_pairs", 0.5, slicereg.lipschitz),
                        "coverage: no check bounds global or global_derivative_ratio from "
                        "below, by a closed form or a certified sup, so pairs inside radius "
                        "rho/2 pass"),
    "disc_points_half": (_scale("_disc_points", 0.5, slicereg.lipschitz),
                         "coverage: no check bounds ratio_full, ratio_plus or ratio_minus "
                         "from below, by a closed form or a certified sup, so points inside "
                         "half the cap pass"),
    "split_F_rel_1e-10": (_break_split(_scale_f(1.0 + 1e-10)),
                          "the cross-path checks growth_sandwich_slack and "
                          "growth_quadratic_slack allow a fixed 1e-8, not a rounding "
                          "bound, which leaves room for a 1e-10 error in F"),
}

DERIVATIVE_RATIOS = {("derivative_characterizations", f"ratio_{mode}")
                     for mode in ("full", "plus", "minus")}
DEFECTS = {("poisson_characterization", "defect_sup"),
           ("poisson_characterization", "defect_over_lip"),
           ("cone_corollary", "defect_constant")}

# the (suite, label) pairs each survivor waits for: a bound on any of
# them, from a closed form, a certified sup or a narrower window, is where
# a check that kills it would land
NEEDS = {
    "global_norm_x2": {("inclusion_chain", "global")},
    "global_norm_half": {("inclusion_chain", "global"), ("inclusion_chain", "slice_sum_norm")},
    "derivative_ratio_x2": DERIVATIVE_RATIOS,
    "derivative_ratio_half": DERIVATIVE_RATIOS,
    "boundary_norm_x2": {("poisson_characterization", "boundary_modulus_norm")},
    "boundary_norm_half": {("poisson_characterization", "boundary_modulus_norm")},
    "_component_defect_sup_x2": DEFECTS,
    "_component_defect_sup_half": DEFECTS,
    "seminorms_N_half": {("norm_equivalences", label)
                         for label in ("max_over_min", "n1_sum", "n2_sum", "n3_sum")},
    "poisson_integral_slice_half": {("cone_corollary", "aligned_excess")},
    "ball_pairs_half": {("inclusion_chain", "global"),
                        ("derivative_characterizations", "global_derivative_ratio")},
    "disc_points_half": DERIVATIVE_RATIOS,
    "split_F_rel_1e-10": {("derivative_characterizations", "growth_sandwich_slack"),
                          ("derivative_characterizations", "growth_quadratic_slack")},
}


def _failures():
    """The failing suites of a small-plan run, and its failing (suite, label)."""
    reports = slicereg.verify.run_suite(RunConfig(**SMALL))
    return ({r.suite for r in reports if not r.passed},
            {(r.suite, label) for r in reports for rec in r.records for label in rec.failures})


def test_every_suite_passes_unmutated_at_the_small_plan():
    assert _failures()[0] == set()


@pytest.mark.parametrize("name", CAUGHT)
def test_caught_defect_fails_its_suites(name, monkeypatch):
    apply, suites = CAUGHT[name]
    apply(monkeypatch)
    assert _failures() == (suites, LABELS[name])


def test_every_check_label_is_failed_by_a_defect_or_listed():
    bounded = {(r.suite, label) for r in slicereg.verify.run_suite(RunConfig(**SMALL))
               for rec in r.records for label in rec.bounds}
    failed = set().union(*LABELS.values())
    assert LABELS.keys() == CAUGHT.keys()
    assert not failed & UNFAILED.keys()
    assert bounded == failed | UNFAILED.keys()
    assert set(UNFAILED.values()) == {FINITE_ONLY, POSITIVITY}


@pytest.mark.parametrize("name", SURVIVORS)
def test_surviving_defect_passes_every_suite(name, monkeypatch):
    apply, reason = SURVIVORS[name]
    apply(monkeypatch)
    assert _failures()[0] == set(), f"{name} is caught now; was: {reason}"


def test_each_survivor_names_the_labels_it_waits_for():
    recorded = {(r.suite, label) for r in slicereg.verify.run_suite(RunConfig(**SMALL))
                for rec in r.records for label in rec.checks}
    assert NEEDS.keys() == SURVIVORS.keys()
    for name, needs in NEEDS.items():
        assert needs and needs <= recorded, name
        reason = SURVIVORS[name][1]
        assert all(re.search(rf"\b{label}\b", reason) for _, label in needs), name


@pytest.mark.parametrize("mutant", [None, "component_estimates_inf"])
def test_each_failure_is_a_check_that_breaks_its_bound(mutant, monkeypatch):
    # every verdict is derived from the recorded relation lo <= value <= hi
    if mutant is not None:
        CAUGHT[mutant][0](monkeypatch)
    broken_total = 0
    for report in slicereg.verify.run_suite(RunConfig(**SMALL)):
        for rec in report.records:
            broken = [label for label, (lo, hi) in rec.bounds.items()
                      if not (lo <= rec.checks[label] <= hi
                              and math.isfinite(rec.checks[label]))]
            assert [f for f in rec.failures if not f.startswith("exception:")] == broken
            broken_total += len(broken)
    assert (broken_total > 0) == (mutant is not None)
