"""Tests of the benchmark itself, on the tiny smoke plans:

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_leaves_ten_samples_beyond():
    times = [float(t) for t in range(1, 31)]
    assert run.tail(times) == (20.0, pytest.approx(100 * 20 / 30))
    assert run.tail(times[:20]) == (10.5, 50.0)


def test_tracer_wraps_every_binding_and_restores_it():
    import slicereg
    from slicereg import lipschitz, poisson, series, verify

    before = (verify.slice_norm, lipschitz.slice_norm, series.eval_complex,
              poisson.eval_complex, slicereg.split)
    with tracing.Tracer() as tracer:
        assert verify.slice_norm is lipschitz.slice_norm
        assert verify.slice_norm is not before[0]
        assert poisson.eval_complex is series.eval_complex is not before[2]
        assert slicereg.split is series.split is not before[4]
        plan = lipschitz.SamplePlan(n_pairs=64, n_points=16)
        f = series.SliceSeries([0.0, 1.0])
        verify.slice_norm(f, slicereg.PowerMajorant(0.5), slicereg.UNIT_E1, plan)
    assert (verify.slice_norm, lipschitz.slice_norm, series.eval_complex,
            poisson.eval_complex, slicereg.split) == before
    summary = tracer.summary()
    assert summary["calls"]["lipschitz.estimators"] == 1
    assert summary["calls"]["lipschitz.streams"] == 1
    assert summary["calls"]["series.split"] == 1
    assert summary["calls"]["series.eval_complex"] == 4
    assert summary["counts"]["lipschitz.pairs_requested"] == 64
    spans = tracer.spans()
    duration = spans["end"] - spans["start"]
    root = spans["parent"] < 0
    assert root.sum() == 1
    total_self = sum(summary["self_s"].values())
    assert total_self == pytest.approx(duration[root].sum() * 1e-9)
