"""The inputs the golden reports rest on beside the code, each pinned by a
test named for it, so that an interpreter or numpy upgrade fails one named
test rather than every golden: the float sum of the Python version, and the
leading draws of the seeded generators. The BLAS thread count is pinned by
tests/test_cli.py::test_report_bytes_do_not_depend_on_blas_threads.
"""

import operator
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import slicereg.quaternion
import slicereg.series
import slicereg.verify
from cpython312_sum import sum312
from slicereg.cli import main
from slicereg.lipschitz import SamplePlan

DATA = Path(__file__).parent / "data"


def test_the_emulated_sum_compensates_exact_floats_only():
    # 3.11's sum adds left to right; 3.12's recovers what rounding dropped
    assert sum312([1e100, 1.0, -1e100]) == 1.0
    assert reduce(operator.add, [1e100, 1.0, -1e100], 0.0) == 0.0
    assert sum312([0.1] * 10) == 1.0 != reduce(operator.add, [0.1] * 10, 0.0)
    # numpy scalars are no exact floats: added one by one, as in 3.11
    items = [np.float64(x) for x in (1e100, 1.0, -1e100)]
    assert sum312(items) == 0.0 and type(sum312(items)) is np.float64


@pytest.mark.parametrize("argv, name", [
    (["verify", "--pairs", "256", "--points", "64", "--nodes", "512"], "verify_small.json"),
    (["verify", "--slice", "i=1,1,1", "--slice", "k=0.3,-1,2", "--pairs", "256",
      "--points", "64", "--nodes", "512"], "verify_off_axis.json"),
    # series._real_reciprocal keeps the builtin sum: its terms are np.float64,
    # which 3.12 adds one by one; were they exact floats, 58 coefficient
    # components in this file would move
    (["star", "--inverse", "exp_taylor", "--order", "64"], "star_inverse.json"),
], ids=["verify_small", "verify_off_axis", "star_inverse"])
def test_report_bytes_do_not_depend_on_python_312_sum(argv, name, tmp_path, monkeypatch):
    # a module global shadows the builtin: verify's corpus scale,
    # quaternion's orthogonal_unit and series' reciprocal run under 3.12's sum
    for module in (slicereg.verify, slicereg.quaternion, slicereg.series):
        monkeypatch.setattr(module, "sum", sum312, raising=False)
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_sample_plan_child_rng_leading_draws():
    plan = SamplePlan()
    assert plan.child_rng(11).uniform(size=4).tolist() == [float.fromhex(h) for h in (
        "0x1.168a9e9fee82bp-1", "0x1.363ddfbd11164p-1",
        "0x1.6b693422df22ep-2", "0x1.3e897097a0217p-1")]
    assert plan.child_rng(21).normal(size=4).tolist() == [float.fromhex(h) for h in (
        "0x1.b5073c7e4a903p-3", "0x1.f5a371ac39874p-1",
        "0x1.5741e6c01dffdp-3", "0x1.4686bd237633bp-1")]


def test_corpus_generator_leading_draws():
    # the generator default_corpus draws its random members from
    draws = np.random.default_rng([2024, 77]).normal(size=(2, 9, 4))
    assert draws.ravel()[:4].tolist() == [float.fromhex(h) for h in (
        "-0x1.459ca1c77e400p-3", "0x1.5cb3b35e59e4bp-4",
        "-0x1.6d1984b153e91p-5", "-0x1.460414a06162ap-1")]
    # and the corpus scales them: random_0's rows are proportional to them
    coeffs = slicereg.verify.default_corpus()[7].series.array
    assert np.allclose(coeffs / draws[0], coeffs[0, 0] / draws[0, 0, 0], rtol=1e-15, atol=0)
