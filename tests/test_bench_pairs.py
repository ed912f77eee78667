import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_END_TO_END = [
    {"name": "op_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _run(p50, rate, failed=0, digest="aa", by_call=None):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {"op_s.p50": {"value": p50, "unit": "s"},
                        "ops_per_s": {"value": rate, "unit": "1/s"}},
            "op_s_p50_by_call": by_call or {"call": p50},
            "first_output_sha256": {"call": digest}}


def test_summary_of_canned_pairs():
    runs = {"parent": [_run(0.10, 50.0), _run(0.12, 45.0), _run(0.11, 47.0), _run(0.13, 44.0)],
            "change": [_run(0.08, 60.0), _run(0.09, 66.0), _run(0.12, 46.0), _run(0.07, 70.0)]}
    s = bench_pairs.summarize(runs, _END_TO_END)
    assert s["pairs"] == 4
    assert s["attempted_ops"] == {"parent": 400, "change": 400}
    assert s["failed_ops"] == {"parent": 0, "change": 0}
    assert s["correct"] == {"parent": True, "change": True}
    assert s["first_output_sha256_equal"]
    p50 = s["metrics"]["op_s.p50"]
    assert p50["parent"] == [0.10, 0.12, 0.11, 0.13]
    assert p50["parent_median"] == pytest.approx(0.115)
    assert p50["change_median"] == pytest.approx(0.085)
    # inclusive quartiles: linear interpolation between order statistics
    assert p50["parent_quartiles"] == pytest.approx([0.1075, 0.115, 0.1225])
    assert p50["parent_iqr"] == pytest.approx(0.015)
    # each side's smallest run, whichever way the metric improves
    assert (p50["parent_min"], p50["change_min"]) == (0.10, 0.07)
    assert p50["change_worse_by"] == pytest.approx(-0.03 / 0.115)  # lower is better
    assert p50["change_wins"] == 3  # the third pair is lost: 0.12 > 0.11
    assert p50["median_gap"] == pytest.approx(0.03)
    assert p50["gap_exceeds_parent_iqr"]
    rate = s["metrics"]["ops_per_s"]
    assert rate["parent_median"] == pytest.approx(46.0)
    assert rate["change_median"] == pytest.approx(63.0)
    assert rate["change_worse_by"] == pytest.approx(-17.0 / 46.0)  # higher is better
    assert rate["change_wins"] == 3  # 46 < 47 in the third pair
    assert (rate["parent_min"], rate["change_min"]) == (44.0, 46.0)
    assert rate["bound"] == 0.25
    assert p50["within_bound"] and rate["within_bound"]  # better is always within


def test_summary_flags_a_loss_failures_and_changed_outputs():
    runs = {"parent": [_run(0.10, 50.0), _run(0.10, 52.0)],
            "change": [_run(0.12, 40.0, failed=2), _run(0.11, 41.0, digest="bb")]}
    s = bench_pairs.summarize(runs, _END_TO_END)
    assert s["failed_ops"] == {"parent": 0, "change": 2}
    assert s["correct"] == {"parent": True, "change": False}
    assert not s["first_output_sha256_equal"]
    p50 = s["metrics"]["op_s.p50"]
    assert p50["change_wins"] == 0
    assert p50["change_worse_by"] == pytest.approx(0.15)
    assert p50["within_bound"]  # 15% worse, under the 25% bound
    assert p50["parent_iqr"] == 0.0 and p50["gap_exceeds_parent_iqr"]
    rate = s["metrics"]["ops_per_s"]
    assert rate["change_worse_by"] == pytest.approx(10.5 / 51.0)
    assert rate["within_bound"]


def test_within_bound_at_and_beyond_the_bound():
    # binary fractions, so 25% worse is exactly the bound
    at = bench_pairs.summarize({"parent": [_run(0.5, 4.0)], "change": [_run(0.625, 3.0)]},
                               _END_TO_END)["metrics"]
    assert at["op_s.p50"]["change_worse_by"] == 0.25
    assert at["op_s.p50"]["within_bound"]
    assert at["ops_per_s"]["change_worse_by"] == 0.25
    assert at["ops_per_s"]["within_bound"]
    beyond = bench_pairs.summarize({"parent": [_run(0.5, 4.0)], "change": [_run(0.65, 2.8)]},
                                   _END_TO_END)["metrics"]
    assert not beyond["op_s.p50"]["within_bound"]  # 30% slower
    assert not beyond["ops_per_s"]["within_bound"]  # 30% fewer ops per second


def test_single_pair_and_mismatched_sides():
    s = bench_pairs.summarize({"parent": [_run(0.1, 5.0)], "change": [_run(0.1, 5.0)]},
                              _END_TO_END)
    assert s["metrics"]["op_s.p50"]["parent_quartiles"] == [0.1, 0.1, 0.1]
    assert s["metrics"]["op_s.p50"]["parent_min"] == s["metrics"]["op_s.p50"]["change_min"] == 0.1
    assert s["metrics"]["op_s.p50"]["change_wins"] == 0  # a tie is not a win
    assert not s["metrics"]["op_s.p50"]["gap_exceeds_parent_iqr"]
    with pytest.raises(ValueError):
        bench_pairs.summarize({"parent": [_run(0.1, 5.0)], "change": []}, _END_TO_END)


@pytest.mark.parametrize("wins, gap, met", [(8, 10.0, False), (9, 10.0, True), (10, 0.5, False)])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_iqr(wins, gap, met):
    # parent ops_per_s 48..52 (IQR 2), change ahead by gap in the first wins
    # pairs and behind by 1 in the rest; p50 mirrors it
    parent = [48.0, 49.0, 50.0, 51.0, 52.0] * 2
    change = [v + gap if i < wins else v - 1.0 for i, v in enumerate(parent)]
    runs = {"parent": [_run(1.0 / v, v) for v in parent],
            "change": [_run(1.0 / v, v) for v in change]}
    s = bench_pairs.summarize(runs, _END_TO_END)["metrics"]
    for name in ("ops_per_s", "op_s.p50"):
        assert s[name]["change_wins"] == wins
        assert s[name]["claim_met"] is met
    # a change that loses by the same margins never meets the claim
    worse = bench_pairs.summarize({"parent": runs["change"], "change": runs["parent"]},
                                  _END_TO_END)["metrics"]
    assert not worse["ops_per_s"]["claim_met"] and not worse["op_s.p50"]["claim_met"]


def test_parent_spread_beyond_the_bound_is_recorded():
    # the parent's own runs differ by max/min - 1; set-up times on an
    # unchanged side have spread by more than their bound
    runs = {"parent": [_run(0.40, 4.0), _run(0.52, 3.5), _run(0.44, 3.9)],
            "change": [_run(0.41, 4.0), _run(0.42, 4.0), _run(0.43, 4.0)]}
    s = bench_pairs.summarize(runs, _END_TO_END)["metrics"]
    assert s["op_s.p50"]["parent_spread"] == pytest.approx(0.3)
    assert s["op_s.p50"]["parent_spreads_beyond_bound"]
    # ops_per_s spreads 4.0 / 3.5 - 1 = 14%, inside its 25% bound
    assert s["ops_per_s"]["parent_spread"] == pytest.approx(1.0 / 7.0)
    assert not s["ops_per_s"]["parent_spreads_beyond_bound"]
    # at exactly the bound (binary fractions) the spread is not beyond it
    at = bench_pairs.summarize({"parent": [_run(0.5, 4.0), _run(0.625, 5.0)],
                                "change": [_run(0.5, 4.0), _run(0.5, 4.0)]}, _END_TO_END)
    assert at["metrics"]["op_s.p50"]["parent_spread"] == 0.25
    assert not at["metrics"]["op_s.p50"]["parent_spreads_beyond_bound"]


def test_a_metric_the_parent_spreads_beyond_its_bound_is_unresolved():
    # op_s.p50: the parent spreads 30% against a 25% bound, and the change's
    # 0.43 is not better than the parent's 0.40; ops_per_s: the parent
    # spreads 40%, but every change run is above every parent run
    runs = {"parent": [_run(0.40, 5.0), _run(0.52, 3.5), _run(0.44, 4.9)],
            "change": [_run(0.41, 5.2), _run(0.42, 5.1), _run(0.43, 5.3)]}
    s = bench_pairs.summarize(runs, _END_TO_END)["metrics"]
    assert s["op_s.p50"]["parent_spreads_beyond_bound"] and s["op_s.p50"]["unresolved"]
    assert s["ops_per_s"]["parent_spreads_beyond_bound"] and not s["ops_per_s"]["unresolved"]
    # a spread within the bound leaves a metric resolved, whatever the order
    within = bench_pairs.summarize({"parent": [_run(0.40, 4.0), _run(0.44, 4.2)],
                                    "change": [_run(0.50, 3.0), _run(0.38, 4.1)]}, _END_TO_END)
    assert not any(m["unresolved"] for m in within["metrics"].values())


def test_each_calls_median_op_time_is_kept_per_run_and_side():
    # a change that slows every call alike, one it leaves alone included,
    # reads as host drift in the per-call table
    runs = {"parent": [_run(0.1, 5.0, by_call={"norm": 0.010, "eval": 0.002}),
                       _run(0.1, 5.0, by_call={"norm": 0.012, "eval": 0.004}),
                       _run(0.1, 5.0, by_call={"norm": 0.011, "eval": 0.003})],
            "change": [_run(0.1, 5.0, by_call={"norm": 0.015, "eval": 0.006}),
                       _run(0.1, 5.0, by_call={"norm": 0.013, "eval": 0.005}),
                       _run(0.1, 5.0, by_call={"norm": 0.014, "eval": 0.004})]}
    calls = bench_pairs.summarize(runs, _END_TO_END)["op_s_p50_by_call"]
    assert list(calls) == ["norm", "eval"]
    assert calls["norm"]["parent"] == [0.010, 0.012, 0.011]
    assert calls["norm"]["change"] == [0.015, 0.013, 0.014]
    assert (calls["norm"]["parent_median"], calls["norm"]["change_median"]) == (0.011, 0.014)
    assert (calls["eval"]["parent_median"], calls["eval"]["change_median"]) == (0.003, 0.005)


def test_run_once_reads_the_per_call_times_from_the_detail_file(tmp_path, monkeypatch):
    detail = {"environment": {"python": "3"}, "first_output_sha256": {"norm": "aa"},
              "op_s_p50_by_call": {"norm": 0.011}}
    out = tmp_path / "benchmarks" / "out"
    out.mkdir(parents=True)
    (out / "cli-mix-seed7-trace0.json").write_text(json.dumps(detail))
    line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {}})

    def run(argv, **kwargs):
        assert kwargs["cwd"] == tmp_path and argv[1:3] == ["benchmarks/run.py", "--workload"]
        return subprocess.CompletedProcess(argv, 0, stdout="noise\n" + line + "\n", stderr="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    result = bench_pairs.run_once(tmp_path, "cli-mix", 7, 1.0)
    assert result["op_s_p50_by_call"] == {"norm": 0.011}
    assert result["environment"] == {"python": "3"}
    assert result["first_output_sha256"] == {"norm": "aa"}
