"""slicereg benchmark: one closed-loop client, in-process, one workload per run.

    python3 benchmarks/run.py --workload verify-default --seed 1 --seconds 30 --trace 0

Each op is one ``slicereg.cli.main(argv)`` call with its output written to
a file.  The run times ops for ``--seconds`` seconds, checks each op's exit
code and output against the first op with the same argv, prints every
metric with its unit and sample count, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics listed in BENCHMARK.json; ``--trace 1``
splits the time between an untraced and a traced phase and reports the
per-layer metrics.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# One client and no extra threads: keep BLAS single-threaded in this process
# and the set-up interpreters it starts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples a tail percentile must leave above it

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")
print(repr(time.perf_counter() - t0))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def measure_setup(workload: str, seed: int, smoke: bool) -> list[float]:
    """Set-up seconds in fresh interpreters.  The first is discarded: it may
    compile the package's bytecode in a fresh checkout."""
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR),
            workload, str(seed), "1" if smoke else "0"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


class Runner:
    """Runs ops, checks each one, and keeps the first output per argv."""

    def __init__(self, cli, workload, check_output, out_path: Path):
        self.cli = cli
        self.workload = workload
        self.check_output = check_output
        self.out_path = out_path
        self.reference: dict[tuple, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.report_bytes: list[int] = []
        self.times_by_call: dict[str, list[float]] = {}

    def op(self, call) -> float:
        self.out_path.unlink(missing_ok=True)
        error = None
        t0 = time.perf_counter()
        try:
            # looked up on each call so that a tracer's wrapper is used
            code = self.cli.main([*call.argv, "--out", str(self.out_path)])
        except Exception as exc:  # a raising op is a failed op; keep going
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        data = self.out_path.read_bytes() if self.out_path.exists() else b""
        if error is None and code != call.exit_code:
            error = f"exit code {code}, expected {call.exit_code}"
        first = self.reference.get(call.argv)
        if first is None:
            self.reference[call.argv] = data
            error = error or self.check_output(call, data)
        elif data != first:
            error = error or "output bytes differ from the first op with this argv"
        self.attempted += 1
        self.report_bytes.append(len(data))
        self.times_by_call.setdefault(call.label, []).append(elapsed)
        if error is not None:
            self.failed += 1
            self.errors.append(f"{call.label}: {error}")
        return elapsed

    def timed(self, budget: float, rng: random.Random) -> tuple[list[float], float]:
        """Run whole rounds while the next round is expected to fit in the
        budget (at least one).  Returns op times and the elapsed time."""
        times: list[float] = []
        rounds: list[float] = []
        t0 = time.perf_counter()
        while True:
            order = list(self.workload.calls)
            rng.shuffle(order)
            r0 = time.perf_counter()
            times += [self.op(call) for call in order]
            rounds.append(time.perf_counter() - r0)
            elapsed = time.perf_counter() - t0
            if elapsed + statistics.fmean(rounds) > budget:
                return times, elapsed

    def p50_by_call(self) -> dict:
        return {label: statistics.median(times)
                for label, times in self.times_by_call.items()}

    def first_output_sha256(self) -> dict:
        return {call.label: hashlib.sha256(self.reference[call.argv]).hexdigest()
                for call in self.workload.calls}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at least
    TAIL_BEYOND samples above it, or the median when that percentile would
    lie below it (fewer than 2 * TAIL_BEYOND + 1 samples)."""
    n = len(times)
    k = n - TAIL_BEYOND - 1
    if 100.0 * (k + 1) / n <= 50.0:
        return statistics.median(times), 50.0
    return sorted(times)[k], 100.0 * (k + 1) / n


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    try:  # the ceiling keeps git from reporting an enclosing repository
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<44} {value:>14.6g} {unit:<6} {note}"


def end_to_end(setup_times, times, elapsed, runner) -> tuple[dict, dict]:
    """All six end-to-end metrics, and the sample count or note of each."""
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_value, "s"),
        "ops_per_s": (len(times) / elapsed, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "failed_ratio": (runner.failed / runner.attempted, "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "op_s.p50": f"{len(times)} timed ops",
        "op_s.tail": (f"p{tail_pct:.4g} of {len(times)} timed ops" if tail_pct > 50
                      else f"median: {len(times)} ops leave no percentile above "
                           f"it with {TAIL_BEYOND} samples beyond"),
        "ops_per_s": f"{len(times)} ops in {elapsed:.3f} s",
        "peak_rss_mb": "ru_maxrss of this process",
        "failed_ratio": f"{runner.failed} of {runner.attempted} ops",
    }
    return metrics, notes


def per_layer(summary: dict, runner, traced_times, untraced_times) -> dict:
    """Per-op means of the trace totals, with units."""
    import tracing

    n_ops = len(traced_times)
    metrics = {}
    for name, calls in summary["calls"].items():
        if name not in tracing.UNNAMED:
            metrics[f"{name}.calls"] = (calls / n_ops, "count")
            metrics[f"{name}.self_s"] = (summary["self_s"][name] / n_ops, "s")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (summary["layer_self_s"][layer] / n_ops, "s")
        metrics[f"{layer}.remainder_s"] = (sum(
            summary["self_s"][name] for name in tracing.UNNAMED
            if name.startswith(layer + ".")) / n_ops, "s")
    for suite in tracing.SUITES:
        metrics[f"verify.{suite}.s"] = (summary["total_s"][f"verify.{suite}"] / n_ops, "s")
    for name, value in summary["counts"].items():
        metrics[name] = (value / n_ops, "B" if name.endswith("_bytes_computed") else "count")
    counts = summary["counts"]
    requested = counts["lipschitz.pairs_requested"]
    metrics["lipschitz.pairs_kept_ratio"] = (
        counts["lipschitz.pairs_kept"] / requested if requested else 0.0, "ratio")
    metrics["cli.report_bytes"] = (statistics.fmean(runner.report_bytes), "B")
    metrics["trace.untraced_s"] = ((sum(traced_times) - summary["root_s"]) / n_ops, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(untraced_times), "s")
    return metrics


def shares(metrics: dict, traced_times: list[float]) -> dict:
    """Self time of each function group as a share of the mean traced op."""
    mean_op = statistics.fmean(traced_times)
    return {name[:-len(".self_s")]: value / mean_op
            for name, (value, _) in metrics.items()
            if name.endswith(".self_s") and name.count(".") == 2}


def traced_run(runner, seconds: float, rng, detail: dict, spans_path: Path) -> dict:
    """Half the time untraced, half traced; returns the per-layer metrics."""
    import numpy as np
    import tracing

    untraced, _ = runner.timed(seconds / 2, rng)
    detail["op_s_p50_by_call"] = runner.p50_by_call()
    runner.times_by_call.clear()
    runner.report_bytes.clear()
    with tracing.Tracer() as tracer:
        traced, _ = runner.timed(seconds / 2, rng)
    metrics = per_layer(tracer.summary(), runner, traced, untraced)
    detail["op_s_p50_by_call_traced"] = runner.p50_by_call()
    detail["op_times"] = {"untraced": untraced, "traced": traced}
    detail["shares_of_traced_op"] = shares(metrics, traced)
    np.savez_compressed(spans_path, **tracer.spans())
    return metrics


def print_report(args, detail: dict, metrics: dict, notes: dict, runner):
    env = detail["environment"]
    print(f"slicereg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; one closed-loop client")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']!r}, blas {env['blas']} threads "
          f"{env['blas_threads']['OPENBLAS_NUM_THREADS']}, commit {env['git_commit']}, "
          f"src sha256 {env['src_sha256'][:16]}")
    for name, (value, unit) in sorted(metrics.items()):
        print(_line(name, value, unit, notes.get(name, "")))
    if args.trace:
        print("  no layer waits: every layer is single-threaded, with no queue or lock")
    for label, digest in detail["first_output_sha256"].items():
        print(f"  sha256 {digest}  {label}")
    for error in runner.errors[:20]:
        print(f"  FAILED {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny plans, for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "slicereg" / "__init__.py").is_file() or not spec_path.is_file():
        raise BenchError(f"no slicereg sources under {SRC}, or no {spec_path.name}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads
    from slicereg import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"slicereg imported from {cli.__file__}, not from {SRC}")
    if args.workload not in workloads.NAMES:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, args.smoke)
    workload = workloads.setup(args.workload, args.seed, args.smoke)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = OUT_DIR / f"op-{os.getpid()}.out"
    runner = Runner(cli, workload, workloads.check_output, out_path)
    rng = random.Random(args.seed)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment()}
    try:
        if args.trace:
            metrics, notes = traced_run(runner, args.seconds, rng, detail,
                                        stem.with_name(stem.name + "-spans.npz")), {}
        else:
            times, elapsed = runner.timed(args.seconds, rng)
            metrics, notes = end_to_end(setup_times, times, elapsed, runner)
            detail.update(op_times=times, setup_times=setup_times,
                          op_s_p50_by_call=runner.p50_by_call())
    finally:
        out_path.unlink(missing_ok=True)

    detail["first_output_sha256"] = runner.first_output_sha256()
    detail["errors"] = runner.errors[:20]
    detail["metrics"] = {k: {"value": v, "unit": u, "note": notes.get(k, "")}
                         for k, (v, u) in metrics.items()}
    stem.with_name(stem.name + ".json").write_text(json.dumps(detail, indent=2) + "\n",
                                                   encoding="utf-8")
    print_report(args, detail, metrics, notes, runner)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
