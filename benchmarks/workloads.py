"""Workload definitions: the CLI calls each workload makes, the exit code
each call must return, and a check of each call's output.

An op is one ``slicereg.cli.main(argv)`` call; the harness appends
``--out <file>`` to every argv.  ``setup`` is also what the fresh
interpreters run to measure ``setup_s``, so it must do exactly the work a
user pays before the first op: import slicereg, build the workload's
RunConfig, corpus and parsed weights, and build the CLI parser.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

NAMES = ("verify-default", "verify-16x", "cli-mix")

# (n_pairs, n_points, nodes) per verify workload; None keeps the RunConfig
# default.  Smoke plans are tiny so the benchmark's own tests run in seconds.
_VERIFY_PLANS = {
    "verify-default": (None, None, None),
    "verify-16x": (65536, 4096, None),
}
_SMOKE_VERIFY_PLANS = {
    "verify-default": (64, 32, 256),
    "verify-16x": (256, 64, 256),
}

MIX_FUNCTIONS = ("identity", "cubic_basis", "random_0", "exp_taylor")
MIX_WEIGHTS = (  # (spec, certified)
    ("power:0.5", True),
    ("power:0.25+power:0.75", True),
    ("scaled:2.0:power:0.3", True),
    ("power:0.5+tabulated:0,0;0.5,0.2;2,0.5", True),
    ("tabulated:0,0;0.001,0.03;0.01,0.1;0.1,0.3;1,1;2,1.4", False),
    ("power:1", False),
)


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    exit_code: int
    kind: str  # selects the output check in check_output

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]  # one round, run in a seeded order


def _verify_calls(name: str, seed: int, smoke: bool) -> tuple[Call, ...]:
    pairs, points, nodes = (_SMOKE_VERIFY_PLANS if smoke else _VERIFY_PLANS)[name]
    argv = ["verify", "--seed", str(seed)]
    for flag, value in (("--pairs", pairs), ("--points", points), ("--nodes", nodes)):
        if value is not None:
            argv += [flag, str(value)]
    return (Call(tuple(argv), 0, "verify"),)


def _mix_calls(smoke: bool) -> tuple[Call, ...]:
    global_pairs = "1024" if smoke else "65536"
    schwarz_points = ("16", "32") if smoke else ("512", "2048")
    calls = []
    for f in MIX_FUNCTIONS:
        base = ("norm", "--name", f, "--estimator")
        calls.append(Call(base + ("global", "--pairs", global_pairs), 0, "norm"))
        for reading in ("schwarz-series", "schwarz-pointwise"):
            for points in schwarz_points:
                calls.append(Call(base + (reading, "--points", points), 0, "schwarz"))
        calls.append(Call(base + ("boundary-modulus",), 0, "norm"))
        calls.append(Call(base + ("component",), 0, "norm"))
    nodes = ("--nodes", "8") if smoke else ()
    for spec, certified in MIX_WEIGHTS:
        calls.append(Call(("majorant-check", "--omega", spec) + nodes,
                          0 if certified else 1, "majorant"))
    calls.append(Call(("star", "--left", "cubic_basis", "--right", "random_0"), 0, "star"))
    calls.append(Call(("star", "--inverse", "exp_taylor", "--order", "64"), 0, "star"))
    calls.append(Call(("eval", "--at", "0.3,0.4,0,0"), 0, "eval"))
    return tuple(calls)


def setup(name: str, seed: int, smoke: bool = False) -> Workload:
    """Import slicereg and build everything the workload's ops parse, the
    way a user's first call would, then return the workload."""
    from slicereg import cli

    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    cli.build_parser()
    if name == "cli-mix":
        for spec, _ in MIX_WEIGHTS:
            cli.parse_majorant(spec)
        cli.default_corpus()
        return Workload(name, _mix_calls(smoke))
    pairs, points, nodes = (_SMOKE_VERIFY_PLANS if smoke else _VERIFY_PLANS)[name]
    defaults = cli.RunConfig()
    config = cli.RunConfig(
        seed=seed,
        n_pairs=pairs or defaults.n_pairs,
        n_points=points or defaults.n_points,
        nodes=nodes or defaults.nodes,
    )
    _ = (config.plan, config.corpus, config.omega, config.omega2, config.omega_small)
    return Workload(name, _verify_calls(name, seed, smoke))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_output(call: Call, data: bytes) -> str | None:
    """Semantic check of one op's output; returns why it is wrong, or None."""
    try:
        doc = json.loads(data)
    except ValueError:
        return "output is not JSON"
    if call.kind == "verify":
        if doc.get("all_passed") is not True:
            failed = [r["suite"] for r in doc.get("reports", []) if not r.get("passed")]
            return f"all_passed is not true (failed suites: {failed})"
    elif call.kind == "norm":
        if not (_finite(doc.get("value")) and doc["value"] >= 0.0):
            return f"norm value {doc.get('value')!r} is not a finite nonnegative number"
    elif call.kind == "schwarz":
        if not _finite(doc.get("hypothesis_constant"), doc.get("derivative_constant")):
            return "schwarz constants are not finite"
        if doc.get("n_used", 0) + doc.get("n_skipped", 0) <= 0:
            return "schwarz estimator used no points"
    elif call.kind == "majorant":
        if doc.get("is_regular") is not (call.exit_code == 0):
            return f"is_regular is {doc.get('is_regular')!r}, expected {call.exit_code == 0}"
    elif call.kind == "star":
        coeffs = [c for rows in doc.values() for row in rows for c in row]
        if not coeffs or not _finite(*coeffs):
            return "star coefficients are missing or not finite"
    elif call.kind == "eval":
        values = [c for rows in doc.values() for row in rows for c in row["value"]]
        if not values or not _finite(*values):
            return "evaluated values are missing or not finite"
    return None
