"""Alternating paired runs of the benchmark in two checkouts.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload cli-mix --seed 1 --pairs 10 --label flat_quadrature

Each pair runs ``benchmarks/run.py --workload W --seed S --seconds T
--trace 0``, T being BENCHMARK.json's ``run_seconds``, once in each
checkout, one after the other; the side that runs first alternates from
pair to pair, so slow drift of the host falls on both sides alike.  The
end-to-end metrics of every run, their per-side medians, quartiles and
minima, the pairs the change wins, whether the parent's own runs spread
beyond each metric's bound, whether that leaves the metric unresolved,
each run's median op time per call with each side's median of them, both
environments and the first output SHA-256 of each call go into
``BENCH_<label>.json`` in the change checkout, under the key
``<workload>-seed<S>``; other keys already in that file are kept, so a
workload or a held-out seed can be added by a later call.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One trace-0 benchmark run: its closing JSON line, plus the
    environment, the median op time per call and the first output digests
    from the run's detail file."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=seconds * 10 + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark run in {checkout} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((checkout / "benchmarks" / "out" /
                         f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
    result["environment"] = detail["environment"]
    result["op_s_p50_by_call"] = detail["op_s_p50_by_call"]
    result["first_output_sha256"] = detail["first_output_sha256"]
    return result


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per-metric comparison of paired runs.  runs[side][i] is the result of
    pair i on that side ({"metrics": {name: {"value": ...}}, "attempted",
    "failed", "correct", ...}); end_to_end is BENCHMARK.json's list of
    {"name", "better", "bound"}.  Each side's minimum is recorded beside its
    median and quartiles: a metric that host noise only ever raises, such as
    a set-up time, spreads less at its minimum.  change_worse_by is the
    relative change of the change's median, positive when it is worse, and
    within_bound holds
    when it is at most the metric's bound; a pair is won when the
    change's value is strictly better than the parent's in the same pair;
    gap_exceeds_parent_iqr holds when the medians differ by more than the
    parent's interquartile range; claim_met, the rule for claiming a gain,
    holds when the change wins at least nine tenths of the pairs and its
    median is better than the parent's by more than that range.
    parent_spread is max/min - 1 over the parent's runs, and
    parent_spreads_beyond_bound holds when it exceeds the metric's bound:
    the unchanged side alone then moves by more than the bound, so a move
    of that metric beyond its bound is host noise as much as the change.
    Such a metric is unresolved, neither unchanged nor worse, unless every
    run of the change reads better than every run of the parent.
    op_s_p50_by_call holds, per call, each run's median op time
    (runs[side][i]["op_s_p50_by_call"]) and each side's median of them: a
    move of op_s.p50 that every call shares, calls the change does not
    touch included, is the host's."""
    pairs = len(runs["parent"])
    if pairs == 0 or len(runs["change"]) != pairs:
        raise ValueError("need the same positive number of runs on both sides")
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], (1.0 if spec["better"] == "lower" else -1.0)
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        quart = {side: _quartiles(values[side]) for side in SIDES}
        parent_med, change_med = quart["parent"][1], quart["change"][1]
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(values["parent"], values["change"]))
        parent_iqr = quart["parent"][2] - quart["parent"][0]
        worse_by = sign * (change_med - parent_med) / abs(parent_med) if parent_med else 0.0
        lo, hi = min(values["parent"]), max(values["parent"])
        spread = hi / lo - 1.0 if lo > 0.0 else 0.0
        ordered = all(sign * (c - p) < 0.0 for c in values["change"] for p in values["parent"])
        metrics[name] = {
            **values,
            "parent_median": parent_med,
            "change_median": change_med,
            "parent_quartiles": quart["parent"],
            "change_quartiles": quart["change"],
            "parent_min": lo,
            "change_min": min(values["change"]),
            "change_worse_by": worse_by,
            "bound": spec["bound"],
            "within_bound": worse_by <= spec["bound"],
            "parent_spread": spread,
            "parent_spreads_beyond_bound": spread > spec["bound"],
            "unresolved": spread > spec["bound"] and not ordered,
            "change_wins": wins,
            "parent_iqr": parent_iqr,
            "median_gap": abs(change_med - parent_med),
            "gap_exceeds_parent_iqr": abs(change_med - parent_med) > parent_iqr,
            "claim_met": 10 * wins >= 9 * pairs and sign * (parent_med - change_med) > parent_iqr,
        }
    return {
        "pairs": pairs,
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
        "first_output_sha256_equal": all(
            r["first_output_sha256"] == runs["parent"][0]["first_output_sha256"]
            for side in SIDES for r in runs[side]),
        "metrics": metrics,
        "op_s_p50_by_call": _per_call(runs),
    }


def _per_call(runs: dict[str, list[dict]]) -> dict:
    calls = {}
    for label in runs["parent"][0]["op_s_p50_by_call"]:
        values = {side: [r["op_s_p50_by_call"][label] for r in runs[side]] for side in SIDES}
        calls[label] = {**values, **{f"{side}_median": statistics.median(values[side])
                                     for side in SIDES}}
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    order = []
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            order.append(f"{time.strftime('%H:%M:%S')} {side} #{i + 1}")
            print(order[-1], flush=True)
            runs[side].append(run_once(checkouts[side], args.workload, args.seed, seconds))

    out = checkouts["change"] / f"BENCH_{args.label}.json"
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("description", (
        f"benchmarks/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
        "run alternately in a checkout of the parent and one of the change by "
        "scripts/bench_pairs.py, the side that runs first alternating from pair to pair."))
    summary = summarize(runs, spec["end_to_end"])
    summary.update(
        workload=args.workload, seed=args.seed, seconds=seconds, order=order,
        environment={side: runs[side][0]["environment"] for side in SIDES},
        first_output_sha256={side: runs[side][0]["first_output_sha256"] for side in SIDES})
    doc.setdefault("workloads", {})[f"{args.workload}-seed{args.seed}"] = summary
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, m in summary["metrics"].items():
        print(f"{name:<12} parent {m['parent_median']:.6g} (min {m['parent_min']:.6g})  "
              f"change {m['change_median']:.6g} (min {m['change_min']:.6g})  "
              f"worse by {m['change_worse_by']:+.1%} (bound {m['bound']:.0%}: "
              f"{'within' if m['within_bound'] else 'BEYOND'})  parent spread "
              f"{m['parent_spread']:.1%}{' BEYOND bound' if m['parent_spreads_beyond_bound'] else ''}"
              f"{' UNRESOLVED' if m['unresolved'] else ''}  "
              f"wins {m['change_wins']}/{args.pairs}  "
              f"gap > parent IQR: {m['gap_exceeds_parent_iqr']}  claim met: {m['claim_met']}")
    ratios = [c["change_median"] / c["parent_median"]
              for c in summary["op_s_p50_by_call"].values() if c["parent_median"] > 0.0]
    if ratios:
        print(f"op time per call, change / parent median: {min(ratios):.3f} to {max(ratios):.3f}"
              f" over {len(ratios)} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
