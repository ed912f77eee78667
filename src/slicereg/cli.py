"""Command-line frontend: evaluate series, run estimators and suites,
emit reports.

Reports are serialized deterministically: fixed key order, two-space
indent, and floats printed with 17 significant digits so identical runs
produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from functools import cache, cached_property

import numpy as np

from .lipschitz import (
    DegeneratePlan,
    SamplePlan,
    boundary_norm,
    component_estimates,
    derivative_ratio,
    global_norm,
    schwarz_pick_criterion,
    slice_norm,
)
from .majorant import (
    Majorant,
    PowerMajorant,
    ScaledMajorant,
    TabulatedMajorant,
    check_regular,
)
from .poisson import MIN_NODES
from .quaternion import ImaginaryUnit, Quaternion
from .series import NotInvertibleAtOrigin, SliceSeries, evaluate, star_inverse, star_product
from .verify import CorpusMember, default_corpus, run_suite


class ParseError(ValueError):
    """Malformed input file or spec string."""


class ValidationError(ValueError):
    """Well-formed input with an invalid value."""


# largest element count a size flag may ask for: 64-bit hardware addresses
# at most 2^48 bytes, so no larger array can be allocated; far past it numpy
# refuses with a ValueError (the byte count overflows), not a MemoryError
MAX_SIZE = 2 ** 48


# ---------------------------------------------------------------- serialization

def _json_fragment(obj, out: list, pad: str):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(format(x, ".17g") if math.isfinite(x) else "null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        inner = pad + "  "
        for n, (key, val) in enumerate(obj.items()):
            out.append(inner + json.dumps(str(key)) + ": ")
            _json_fragment(val, out, inner)
            out.append(",\n" if n < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        inner = pad + "  "
        for n, val in enumerate(seq):
            out.append(inner)
            _json_fragment(val, out, inner)
            out.append(",\n" if n < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    out: list[str] = []
    _json_fragment(obj, out, "")
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------- spec parsing

def parse_majorant(spec: str) -> Majorant:
    """Build a majorant from a compact spec string.

    Terms are joined with '+'. Each term is one of
      power:<alpha>[:<c>]                shorthand for scaled:<c>:power:<alpha>
      scaled:<c>:<term>                  c > 0
      tabulated:<t0>,<v0>;<t1>,<v1>;...  t0 = v0 = 0, every later value > 0
    Example: "power:0.5+scaled:2:power:0.25". A weight vanishing away from
    0 is rejected: every estimator divides by it.
    """
    terms = [t.strip() for t in spec.split("+")]
    if not any(terms):
        raise ParseError(f"empty majorant spec {spec!r}")
    total = None
    for term in terms:
        parsed = _parse_majorant_term(term)
        total = parsed if total is None else total + parsed
    return total


def _num(text: str, term: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"bad number in majorant term {term!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"non-finite number in majorant term {term!r}")
    return value


def _validated(ctor, term: str, *args) -> Majorant:
    # well-formed text, but the constructor may reject the values
    try:
        return ctor(*args)
    except ValueError as exc:
        raise ValidationError(f"bad majorant term {term!r}: {exc}") from exc


def _scaled(c: float, base: Majorant, term: str) -> Majorant:
    if c <= 0.0:  # a weight must be positive away from 0
        raise ValidationError(f"scale must be positive: {term!r}")
    return ScaledMajorant(c, base)


def _parse_majorant_term(term: str) -> Majorant:
    head, _, rest = term.partition(":")
    if head == "power":
        parts = rest.split(":")
        if len(parts) not in (1, 2) or not parts[0]:
            raise ParseError(f"power needs 1 or 2 parameters: {term!r}")
        nums = [_num(p, term) for p in parts]
        power = _validated(PowerMajorant, term, nums[0])
        return power if len(nums) == 1 else _scaled(nums[1], power, term)
    if head == "scaled":
        c_text, _, inner = rest.partition(":")
        base = _parse_majorant_term(inner)
        return _scaled(_num(c_text, term), base, term)
    if head == "tabulated":
        pairs = [p for p in rest.split(";") if p]
        if not pairs:
            raise ParseError(f"tabulated needs knots: {term!r}")
        grid, values = [], []
        for p in pairs:
            t_text, _, v_text = p.partition(",")
            grid.append(_num(t_text, term))
            values.append(_num(v_text, term))
        table = _validated(TabulatedMajorant, term, grid, values)
        if 0.0 in values[1:]:
            raise ValidationError(f"table vanishes at a knot after 0: {term!r}")
        return table
    raise ParseError(f"unknown majorant kind {head!r}")


def _parse_finite(text: str, size: int, what: str) -> list[float]:
    """'x,y,...' -> exactly size finite floats."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad {what} {text!r}") from exc
    if len(parts) != size:
        raise ParseError(f"{what} needs {size} components: {text!r}")
    if not all(map(math.isfinite, parts)):
        raise ValidationError(f"{what} must be finite: {text!r}")
    return parts


def parse_point(text: str) -> Quaternion:
    return Quaternion(*_parse_finite(text, 4, "point"))


def _is_finite(value) -> bool:
    """True for a finite int or float (not a bool)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _coerce_coefficient(name: str, idx: int, entry) -> list:
    """The entry as it is, once it is checked to be four finite numbers."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 4:
        raise ValidationError(
            f"entry {name!r}, coefficient {idx}: expected 4 components")
    for comp in entry:
        if isinstance(comp, bool) or not isinstance(comp, (int, float)):
            raise ParseError(
                f"entry {name!r}, coefficient {idx}: non-numeric field {comp!r}")
        if not _is_finite(comp):
            raise ValidationError(
                f"entry {name!r}, coefficient {idx}: non-finite field {comp!r}")
    return entry


def _load_json_object(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits, too deep
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return doc


def load_function_spec(path: str) -> tuple[CorpusMember, ...]:
    """Read a JSON object {name: [[x0,x1,x2,x3], ...], ...} into corpus
    members, in file order; at least one entry, as a run over none would
    check nothing."""
    doc = _load_json_object(path)
    if not doc:
        raise ValidationError(f"{path}: a function spec needs at least one entry")
    members = []
    for name, coeffs in doc.items():
        if not isinstance(coeffs, list):
            raise ValidationError(f"entry {name!r}: expected a coefficient list")
        if not coeffs:
            raise ValidationError(
                f"entry {name!r}: a series needs at least one coefficient")
        parsed = [_coerce_coefficient(name, idx, c) for idx, c in enumerate(coeffs)]
        members.append(CorpusMember(str(name), SliceSeries(parsed)))
    return tuple(members)


# ---------------------------------------------------------------- run config

@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Serializable description of a run, validated when built: the one
    input of run_suite, of each suite function verify_<suite>(config), and
    of the norm, eval and star commands. The parsed plan, weights, units
    and corpus are properties, each built once per config, so every suite
    of a run reads the same plan, with its store of streams, weights and
    certificates, and the same member objects, whose values the plan's
    store holds during the member's step. The slice units are stored
    normalized, as the run uses them. A weight must be a positive normal
    float at min_separation and finite at 2, since the estimators divide by
    it and the bounds scale with it; majorant-check holds its --omega to
    this rule through a RunConfig."""

    seed: int = SamplePlan.seed
    n_pairs: int = SamplePlan.n_pairs
    n_points: int = SamplePlan.n_points
    min_separation: float = SamplePlan.min_separation
    max_radius: float = SamplePlan.max_radius
    nodes: int = 2048
    omega_spec: str = "power:0.5"
    omega2_spec: str = "power:0.5"
    omega_small_spec: str = "power:0.25"
    slice_i: tuple = (1.0, 0.0, 0.0)
    slice_k: tuple = (0.0, 1.0, 0.0)
    a_coeff: tuple = (0.0, 1.0, 0.0, 0.0)
    window: float = 20.0
    suites: tuple | None = None
    corpus_path: str | None = None
    corpus_seed: int = 2024

    def __post_init__(self):
        def require(ok: bool, name: str, what: str):
            if not ok:
                value = getattr(self, name)
                raise ValidationError(f"config {name} must be {what}, got {value!r}")

        for name in ("seed", "n_pairs", "n_points", "nodes", "corpus_seed"):
            require(type(getattr(self, name)) is int, name, "an integer")
        require(self.nodes >= MIN_NODES, "nodes", f"at least {MIN_NODES}")
        for name in ("n_pairs", "n_points", "nodes"):
            require(getattr(self, name) <= MAX_SIZE, name, "at most 2**48")
        require(self.corpus_seed >= 0, "corpus_seed", "nonnegative")
        for name in ("min_separation", "max_radius", "window"):
            require(_is_finite(getattr(self, name)), name, "a finite number")
        # 1/window <= ratio <= window is empty below 1
        require(self.window >= 1.0, "window", "at least 1")
        for name, size in (("slice_i", 3), ("slice_k", 3), ("a_coeff", 4)):
            value = getattr(self, name)
            require(isinstance(value, (list, tuple)) and len(value) == size
                    and all(map(_is_finite, value)), name, f"{size} finite numbers")
            object.__setattr__(self, name, tuple(float(c) for c in value))
        # normalized once here: the config block records the bits the run uses
        for name in ("slice_i", "slice_k"):
            try:
                unit = ImaginaryUnit.from_vector(*getattr(self, name))
            except ValueError as exc:
                raise ValidationError(str(exc)) from exc
            object.__setattr__(self, name, unit.components())
        for name in ("omega_spec", "omega2_spec", "omega_small_spec"):
            require(isinstance(getattr(self, name), str), name, "a string")
        require(self.corpus_path is None or isinstance(self.corpus_path, str),
                "corpus_path", "a string")
        if self.suites is not None:
            require(isinstance(self.suites, (list, tuple)), "suites", "a list")
            require(all(isinstance(s, str) for s in self.suites), "suites", "strings")
            # a run that checks nothing must not pass
            require(len(self.suites) > 0, "suites", "nonempty")
            object.__setattr__(self, "suites", tuple(self.suites))
        for name in ("plan", "omega", "omega2", "omega_small"):
            getattr(self, name)  # parsed now, so a bad value is refused here
        for name in ("omega", "omega2", "omega_small"):
            # an overflow to inf is what this detects, so numpy's warning is off
            with np.errstate(over="ignore"):
                low, high = getattr(self, name)([self.min_separation, 2.0]).tolist()
            require(sys.float_info.min <= low < math.inf and math.isfinite(high),
                    f"{name}_spec", "a weight that is normal at min_separation and finite at 2")

    @cached_property
    def plan(self) -> SamplePlan:
        return SamplePlan(self.n_pairs, self.n_points, self.min_separation,
                          self.max_radius, self.seed)

    @cached_property
    def omega(self) -> Majorant:
        return parse_majorant(self.omega_spec)

    @cached_property
    def omega2(self) -> Majorant:
        return parse_majorant(self.omega2_spec)

    @cached_property
    def omega_small(self) -> Majorant:
        return parse_majorant(self.omega_small_spec)

    @cached_property
    def i(self) -> ImaginaryUnit:
        return ImaginaryUnit(*self.slice_i)

    @cached_property
    def k(self) -> ImaginaryUnit:
        return ImaginaryUnit(*self.slice_k)

    @cached_property
    def corpus(self) -> tuple[CorpusMember, ...]:
        if self.corpus_path is not None:
            return load_function_spec(self.corpus_path)
        return default_corpus(self.corpus_seed)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


# ---------------------------------------------------------------- reporting

def _write_text(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_summary(docs) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["suite", "function", "passed", "main_check",
                     "main_value", "witness"])
    for doc in docs:
        for rec in doc["records"]:
            checks = rec["checks"]
            main = next(iter(checks)) if checks else ""
            value = format(checks[main], ".17g") if main else ""
            wits = rec["witnesses"]
            wkey = next(iter(wits)) if wits else ""
            wtext = ""
            if wkey:
                flat = [format(c, ".17g") for pt in wits[wkey] for c in pt]
                wtext = f"{wkey}:" + "|".join(flat)
            writer.writerow([doc["suite"], rec["name"],
                             str(rec["passed"]).lower(), main, value, wtext])
        if not doc["records"]:
            writer.writerow([doc["suite"], "", str(doc["passed"]).lower(),
                             "", "", ";".join(doc["notes"])])
    return buf.getvalue()


def emit_report(reports, path: str | None, fmt: str, config: RunConfig) -> int:
    """Write the suite reports; returns 0 iff every suite passed."""
    if fmt not in ("json", "csv"):
        raise ValidationError(f"format must be json or csv, got {fmt!r}")
    docs = [r.to_dict() for r in reports]
    all_passed = all(d["passed"] for d in docs)
    if fmt == "json":
        doc = {"all_passed": all_passed, "config": dataclasses.asdict(config),
               "reports": docs}
        _write_text(to_json(doc), path)
    else:
        _write_text(_csv_summary(docs), path)
    return 0 if all_passed else 1


# ---------------------------------------------------------------- subcommands

def _pick(corpus, name: str) -> SliceSeries:
    for m in corpus:
        if m.name == name:
            return m.series
    raise ValidationError(f"no function named {name!r}")


def _cmd_eval(args) -> int:
    corpus = _config_from_args(args).corpus
    if args.name:
        corpus = tuple(m for m in corpus if m.name in args.name)
        missing = set(args.name) - {m.name for m in corpus}
        if missing:
            raise ValidationError(f"no function named {sorted(missing)}")
    points = [parse_point(p) for p in args.at]
    doc = {}
    for m in corpus:
        rows = []
        for p in points:
            v = evaluate(m.series, p)
            rows.append({"point": list(p.components()), "value": list(v.components())})
        doc[m.name] = rows
    _write_text(to_json(doc), args.out)
    return 0


def _cmd_star(args) -> int:
    corpus = _config_from_args(args).corpus
    if args.inverse:
        if not 0 <= args.order <= MAX_SIZE:
            raise ValidationError(f"--order must lie in [0, 2**48], got {args.order}")
        result = star_inverse(_pick(corpus, args.inverse), args.order)
        label = f"inverse:{args.inverse}"
    else:
        if not (args.left and args.right):
            raise ValidationError("star needs --left and --right, or --inverse")
        result = star_product(_pick(corpus, args.left), _pick(corpus, args.right))
        label = f"product:{args.left}*{args.right}"
    _write_text(to_json({label: result.array.tolist()}), args.out)
    return 0


def _cmd_majorant_check(args) -> int:
    # the weight rule of every run. --nodes stays outside RunConfig: the
    # flag is unused, and its floor of 4 is below RunConfig's
    omega = RunConfig(omega_spec=args.omega).omega
    if not 4 <= args.nodes <= MAX_SIZE:
        raise ValidationError(f"--nodes must lie in [4, 2**48], got {args.nodes}")
    cert = check_regular(omega)
    _write_text(to_json({"spec": args.omega, **dataclasses.asdict(cert)}), args.out)
    return 0 if cert.is_regular else 1


# each estimator: the call that yields its NormEstimate or, for the two
# Schwarz-Pick readings, its SchwarzPickReport. The lambdas look the
# estimators up in this module when called, so a wrapper set on
# slicereg.cli sees every call.
_ESTIMATORS = {
    "slice": lambda f, w, w2, i, plan: slice_norm(f, w, i, plan),
    "component": lambda f, w, w2, i, plan: component_estimates(f, w, w2, i, plan)[2],
    "global": lambda f, w, w2, i, plan: global_norm(f, w, plan),
    "boundary": lambda f, w, w2, i, plan: boundary_norm(f, w, i, plan)[0],
    "boundary-modulus": lambda f, w, w2, i, plan: boundary_norm(f, w, i, plan)[1],
    "derivative-full": lambda f, w, w2, i, plan: derivative_ratio(f, w, i, plan)[0],
    "derivative-plus": lambda f, w, w2, i, plan: derivative_ratio(f, w, i, plan)[1],
    "derivative-minus": lambda f, w, w2, i, plan: derivative_ratio(f, w, i, plan)[2],
    "schwarz-series": lambda f, w, w2, i, plan: schwarz_pick_criterion(f, w, i, plan, "series"),
    "schwarz-pointwise":
        lambda f, w, w2, i, plan: schwarz_pick_criterion(f, w, i, plan, "pointwise"),
}


def _cmd_norm(args) -> int:
    config = _config_from_args(args)
    f = _pick(config.corpus, args.name)
    # the second weight is the first unless --omega2 is given
    omega2 = config.omega2 if args.omega2_spec is not None else config.omega
    result = _ESTIMATORS[args.estimator](f, config.omega, omega2, config.i, config.plan)
    _write_text(to_json({"function": args.name, "estimator": args.estimator,
                         **dataclasses.asdict(result)}), args.out)
    return 0


def _config_from_args(args) -> RunConfig:
    """The --config file gives the fields, if given; each flag given beside
    it overrides the RunConfig field of the same name."""
    fields = _load_json_object(args.config) if getattr(args, "config", None) else {}
    fields.update((f.name, getattr(args, f.name)) for f in dataclasses.fields(RunConfig)
                  if getattr(args, f.name, None) is not None)
    for entry in getattr(args, "slice", None) or ():
        name, sep, rest = entry.partition("=")
        if not sep or name.strip() not in ("i", "k"):
            raise ParseError(f"--slice expects i=x,y,z or k=x,y,z, got {entry!r}")
        # RunConfig normalizes the vector
        fields[f"slice_{name.strip()}"] = _parse_finite(rest, 3, "unit vector")
    return RunConfig.from_dict(fields)


def _cmd_verify(args) -> int:
    config = _config_from_args(args)
    reports = run_suite(config)
    return emit_report(reports, args.out, args.format, config=config)


def _cmd_report(args) -> int:
    """Both formats read the document as a report: its reports must be
    nonempty and make a CSV summary, and its all_passed must be the boolean
    that says whether every suite passed."""
    doc = _load_json_object(args.input)
    try:
        reports = doc["reports"]
        text = _csv_summary(reports)
        # all() gives True or False, so a non-boolean all_passed is refused too
        if not reports or doc["all_passed"] is not all(r["passed"] for r in reports):
            raise ValueError("all_passed must be the boolean verdict of nonempty reports")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{args.input}: not a slicereg report: {exc!r}") from exc
    _write_text(to_json(doc) if args.format == "json" else text, args.out)
    return 0 if doc["all_passed"] else 1


def _add_run_flags(p):
    """The sampling flags norm and verify share; each stores into the
    RunConfig field of its dest, and None leaves the RunConfig default."""
    p.add_argument("--seed", type=int)
    p.add_argument("--pairs", type=int, dest="n_pairs")
    p.add_argument("--points", type=int, dest="n_points")
    p.add_argument("--omega", dest="omega_spec")
    p.add_argument("--omega2", dest="omega2_spec")
    p.add_argument("--slice", action="append", metavar="i=X,Y,Z")


@cache  # built once per process: every main call parses with the same parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicereg",
        description="Quaternionic power series: evaluation, norm "
                    "estimators, and property suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate functions at points")
    p.add_argument("--file", dest="corpus_path",
                   help="JSON function spec (default: built-in corpus)")
    p.add_argument("--name", action="append", help="restrict to these names")
    p.add_argument("--at", action="append", required=True,
                   metavar="X0,X1,X2,X3", help="evaluation point")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("star", help="star product or inverse, to JSON")
    p.add_argument("--file", dest="corpus_path")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--inverse")
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("majorant-check", help="certify a majorant spec")
    p.add_argument("--omega", required=True)
    p.add_argument("--nodes", type=int, default=64,
                   help="unused, as the certificate is closed-form; must lie in [4, 2**48]")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_majorant_check)

    p = sub.add_parser("norm", help="run one estimator")
    p.add_argument("--file", dest="corpus_path")
    p.add_argument("--name", required=True)
    p.add_argument("--estimator", required=True, choices=_ESTIMATORS)
    _add_run_flags(p)
    p.add_argument("--eps", type=float, dest="min_separation")
    p.add_argument("--rho", type=float, dest="max_radius")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", dest="suites", help="comma-separated suite names (default all)",
                   type=lambda text: tuple(s for s in text.split(",") if s))
    _add_run_flags(p)
    p.add_argument("--nodes", type=int)
    p.add_argument("--omega-small", dest="omega_small_spec")
    p.add_argument("--window", type=float)
    p.add_argument("--corpus", dest="corpus_path",
                   help="JSON function spec replacing the corpus")
    p.add_argument("--config", help="JSON RunConfig giving the fields; flags given beside "
                                    "it override them")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="convert a saved JSON report")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, DegeneratePlan, NotInvertibleAtOrigin) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size flag too large for this machine
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
