"""Outside-in tracing of slicereg: spans and counters recorded by wrapping
public functions, without any change to the package.

``verify``, ``lipschitz`` and ``cli`` import names directly
(``from .lipschitz import slice_norm``), so each function is replaced in
every ``slicereg`` module namespace that binds it, not only where it is
defined.  Every wrapped call records a span (name, start, end, parent) in
flat in-memory arrays; the spans are written out once, at the end.  A
span's self time is its duration minus the durations of its child spans.

Code a wrapped function reaches without passing through another wrapped
function (for example ``Quaternion`` arithmetic inside ``evaluate``, or
the private ``_gauss_panels`` inside ``check_regular``) counts as the
self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from math import prod

import numpy as np

SUITES = (
    "inclusion_chain", "algebraic_closure", "intrinsic_invariance",
    "slice_independence", "modulus_membership", "norm_equivalences",
    "derivative_characterizations", "poisson_characterization",
    "cone_corollary",
)

# (defining module, function) -> (layer, group).  Groups name the metrics;
# several functions may feed one group.
WRAPPED = {
    ("quaternion", "hmul_array"): ("quaternion", "hmul_array"),
    ("quaternion", "hamilton_mul"): ("quaternion", "hamilton_mul"),
    ("series", "evaluate_batch"): ("series", "evaluate_batch"),
    ("series", "eval_complex"): ("series", "eval_complex"),
    ("series", "split"): ("series", "split"),
    ("series", "evaluate"): ("series", "evaluate"),
    ("series", "star_product"): ("series", "star_product"),
    ("majorant", "check_regular"): ("majorant", "check_regular"),
    ("poisson", "poisson_integral_slice"): ("poisson", "poisson_integral_slice"),
    ("lipschitz", "disc_pair_coords"): ("lipschitz", "streams"),
    ("lipschitz", "ball_pair_coords"): ("lipschitz", "streams"),
    ("lipschitz", "circle_pair_angles"): ("lipschitz", "streams"),
    ("lipschitz", "slice_norm"): ("lipschitz", "estimators"),
    ("lipschitz", "component_estimates"): ("lipschitz", "estimators"),
    ("lipschitz", "global_norm"): ("lipschitz", "estimators"),
    ("lipschitz", "boundary_norm"): ("lipschitz", "estimators"),
    ("lipschitz", "seminorms_N"): ("lipschitz", "estimators"),
    ("lipschitz", "derivative_ratio"): ("lipschitz", "estimators"),
    ("lipschitz", "bounded_growth_check"): ("lipschitz", "bounded_growth_check"),
    ("lipschitz", "schwarz_pick_criterion"): ("lipschitz", "schwarz"),
    ("verify", "run_suite"): ("verify", "run_suite"),
    **{("verify", f"verify_{s}"): ("verify", s) for s in SUITES},
    ("cli", "main"): ("cli", "main"),
    ("cli", "to_json"): ("cli", "to_json"),
}
LAYERS = ("quaternion", "series", "majorant", "poisson", "lipschitz", "verify", "cli")
# Groups that no per-layer metric names: their self time is the layer's own
# code outside the named functions (corpus and plan set-up in run_suite;
# argument parsing and file writing in main), reported as its remainder.
UNNAMED = ("verify.run_suite", "cli.main")

# Bytes per kernel value: the float64 Poisson kernel matrix of points x nodes.
# Computed from the call arguments, not measured; temporaries are not counted.
KERNEL_VALUE_BYTES = 8


def _rows(shape) -> int:
    return prod(shape[:-1])


def _count_hmul(c, a, result):
    c["quaternion.hmul_array.rows"] += _rows(np.shape(result))


def _count_evaluate_batch(c, a, result):
    c["series.evaluate_batch.points"] += _rows(np.shape(result))


def _count_eval_complex(c, a, result):
    c["series.eval_complex.points"] += int(np.size(a["z"]))


def _count_poisson(c, a, result):
    evals = int(np.size(a["zs"])) * int(a["nodes"])
    c["poisson.kernel_evals"] += evals
    c["poisson.kernel_bytes_computed"] += evals * KERNEL_VALUE_BYTES


def _count_stream(c, a, result):
    c["lipschitz.pairs_requested"] += int(a["plan"].n_pairs)
    c["lipschitz.pairs_kept"] += len(result[0])


def _count_schwarz(c, a, result):
    c["lipschitz.schwarz.points_used"] += result.n_used
    c["lipschitz.schwarz.points_skipped"] += result.n_skipped


def _count_reports(c, a, reports):
    for rep in reports:
        c["verify.guarded_exceptions"] += sum(n.startswith("error:") for n in rep.notes)
        for rec in rep.records:
            c["verify.checks"] += len(rec.checks)
            c["verify.failed_checks"] += len(rec.failures)
            c["verify.guarded_exceptions"] += sum(
                f.startswith("exception:") for f in rec.failures)


# Counters read from the call's bound arguments and its result.
PROBES = {
    ("quaternion", "hmul_array"): _count_hmul,
    ("series", "evaluate_batch"): _count_evaluate_batch,
    ("series", "eval_complex"): _count_eval_complex,
    ("poisson", "poisson_integral_slice"): _count_poisson,
    ("lipschitz", "disc_pair_coords"): _count_stream,
    ("lipschitz", "ball_pair_coords"): _count_stream,
    ("lipschitz", "circle_pair_angles"): _count_stream,
    ("lipschitz", "schwarz_pick_criterion"): _count_schwarz,
    ("verify", "run_suite"): _count_reports,
}
COUNTERS = (
    "quaternion.hmul_array.rows", "series.evaluate_batch.points",
    "series.eval_complex.points", "poisson.kernel_evals",
    "poisson.kernel_bytes_computed", "lipschitz.pairs_requested",
    "lipschitz.pairs_kept", "lipschitz.schwarz.points_used",
    "lipschitz.schwarz.points_skipped", "verify.checks",
    "verify.failed_checks", "verify.guarded_exceptions",
)


class Tracer:
    """Context manager that wraps the functions in WRAPPED while active.

    Single-threaded by design, like slicereg itself: the span stack is one
    list shared by every wrapper.
    """

    def __init__(self):
        self.names = [f"{module}.{function}" for module, function in WRAPPED]
        self.groups = [f"{layer}.{group}" for layer, group in WRAPPED.values()]
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name_id = array("i")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int, probe):
        start, end, parent, ids, stack = (
            self.start, self.end, self.parent, self.name_id, self._stack)
        counts = self.counts
        signature = inspect.signature(fn)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(counts, bound.arguments, result)
            return result

        return traced

    def __enter__(self):
        modules = {m: importlib.import_module(f"slicereg.{m}") for m, _ in WRAPPED}
        replace = {}
        for name_id, key in enumerate(WRAPPED):
            original = getattr(modules[key[0]], key[1])
            replace[id(original)] = self._wrap(original, name_id, PROBES.get(key))
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "slicereg" or name.startswith("slicereg.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def spans(self) -> dict:
        """The recorded spans as arrays (times in ns from perf_counter_ns);
        span k called function ``names[name_id[k]]`` of ``groups[name_id[k]]``."""
        return {
            "names": np.array(self.names),
            "groups": np.array(self.groups),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Totals over every span recorded: per group its calls, self time
        and total time in seconds; per layer its self time; the time of the
        root spans; and the counters."""
        s = self.spans()
        dur = (s["end"] - s["start"]).astype(np.float64) * 1e-9
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        n = len(self.names)
        calls = np.bincount(s["name_id"], minlength=n)
        self_by_name = np.bincount(s["name_id"], weights=self_s, minlength=n)
        total_by_name = np.bincount(s["name_id"], weights=dur, minlength=n)
        out = {"calls": {}, "self_s": {}, "total_s": {}, "layer_self_s": {}}
        for k, group in enumerate(self.groups):  # several functions may share a group
            for key, values in (("calls", calls), ("self_s", self_by_name),
                                ("total_s", total_by_name)):
                out[key][group] = out[key].get(group, 0) + values[k].item()
        for layer in LAYERS:
            out["layer_self_s"][layer] = sum(
                v for name, v in out["self_s"].items() if name.startswith(layer + "."))
        out["counts"] = dict(self.counts)
        out["root_s"] = float(dur[~has_parent].sum())
        return out
