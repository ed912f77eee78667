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

import numpy as np

from .lipschitz import (
    DegeneratePlan,
    SamplePlan,
    boundary_norm,
    component_norm,
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
from .quaternion import ImaginaryUnit, Quaternion, UNIT_E1
from .series import NotInvertibleAtOrigin, SliceSeries, evaluate, star_inverse, star_product
from .verify import CorpusMember, default_corpus, run_suite


class ParseError(ValueError):
    """Malformed input file or spec string."""


class ValidationError(ValueError):
    """Well-formed input with an invalid value."""


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
      power:<alpha>[:<scale>]
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


def _parse_majorant_term(term: str) -> Majorant:
    head, _, rest = term.partition(":")
    if head == "power":
        parts = rest.split(":")
        if len(parts) not in (1, 2) or not parts[0]:
            raise ParseError(f"power needs 1 or 2 parameters: {term!r}")
        alpha = _num(parts[0], term)
        scale = _num(parts[1], term) if len(parts) == 2 else 1.0
        return _validated(PowerMajorant, term, alpha, scale)
    if head == "scaled":
        c_text, _, inner = rest.partition(":")
        base = _parse_majorant_term(inner)
        c = _num(c_text, term)
        if c <= 0.0:  # a weight must be positive away from 0
            raise ValidationError(f"scale must be positive: {term!r}")
        return _validated(ScaledMajorant, term, c, base)
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


def parse_unit(text: str) -> ImaginaryUnit:
    """'x,y,z' -> the normalized imaginary unit along that vector."""
    v = np.asarray(_parse_finite(text, 3, "unit vector"))
    with np.errstate(over="ignore", under="ignore"):  # caught below
        n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValidationError("unit vector must be nonzero")
    try:  # the norm over- or underflows for extreme components
        return ImaginaryUnit(v[0] / n, v[1] / n, v[2] / n)
    except ValueError as exc:
        raise ValidationError(f"cannot normalize unit vector {text!r}") from exc


def parse_point(text: str) -> Quaternion:
    return Quaternion(*_parse_finite(text, 4, "point"))


def _is_finite(value) -> bool:
    """True for a finite int or float (not a bool)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _coerce_coefficient(name: str, idx: int, entry) -> Quaternion:
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
    return Quaternion(*entry)


def _load_json_object(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return doc


def load_function_spec(path: str) -> tuple[CorpusMember, ...]:
    """Read a JSON object {name: [[x0,x1,x2,x3], ...], ...} into corpus
    members, in file order."""
    doc = _load_json_object(path)
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
    """Serializable description of a verify run, the one input of run_suite,
    validated when built; the parsed plan, weights, units and corpus are
    properties."""

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
        require(self.corpus_seed >= 0, "corpus_seed", "nonnegative")
        for name in ("min_separation", "max_radius", "window"):
            require(_is_finite(getattr(self, name)), name, "a finite number")
        for name, size in (("slice_i", 3), ("slice_k", 3), ("a_coeff", 4)):
            value = getattr(self, name)
            require(isinstance(value, (list, tuple)) and len(value) == size
                    and all(map(_is_finite, value)), name, f"{size} finite numbers")
            object.__setattr__(self, name, tuple(float(c) for c in value))
        for name in ("omega_spec", "omega2_spec", "omega_small_spec"):
            require(isinstance(getattr(self, name), str), name, "a string")
        require(self.corpus_path is None or isinstance(self.corpus_path, str),
                "corpus_path", "a string")
        if self.suites is not None:
            require(isinstance(self.suites, (list, tuple)), "suites", "a list")
            require(all(isinstance(s, str) for s in self.suites), "suites", "strings")
            object.__setattr__(self, "suites", tuple(self.suites))
        for name in ("plan", "i", "k", "omega", "omega2", "omega_small"):
            getattr(self, name)  # parsed now, so a bad value is refused here

    @property
    def plan(self) -> SamplePlan:
        return SamplePlan(self.n_pairs, self.n_points, self.min_separation,
                          self.max_radius, self.seed)

    @property
    def omega(self) -> Majorant:
        return parse_majorant(self.omega_spec)

    @property
    def omega2(self) -> Majorant:
        return parse_majorant(self.omega2_spec)

    @property
    def omega_small(self) -> Majorant:
        return parse_majorant(self.omega_small_spec)

    @property
    def i(self) -> ImaginaryUnit:
        return parse_unit(",".join(str(c) for c in self.slice_i))

    @property
    def k(self) -> ImaginaryUnit:
        return parse_unit(",".join(str(c) for c in self.slice_k))

    @property
    def a(self) -> Quaternion:
        return Quaternion(*self.a_coeff)

    @property
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


def _csv_summary(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["suite", "function", "passed", "main_check",
                     "main_value", "witness"])
    for rep in reports:
        doc = rep.to_dict() if hasattr(rep, "to_dict") else rep
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


def emit_report(reports, path: str | None = None, fmt: str = "json",
                config: RunConfig | None = None) -> int:
    """Write the suite reports; returns 0 iff every suite passed."""
    if fmt not in ("json", "csv"):
        raise ValidationError(f"format must be json or csv, got {fmt!r}")
    all_passed = all(r.passed for r in reports)
    if fmt == "json":
        doc = {
            "all_passed": all_passed,
            "config": dataclasses.asdict(config) if config is not None else None,
            "reports": [r.to_dict() for r in reports],
        }
        _write_text(to_json(doc), path)
    else:
        _write_text(_csv_summary(reports), path)
    return 0 if all_passed else 1


# ---------------------------------------------------------------- subcommands

def _corpus_from_args(args) -> tuple[CorpusMember, ...]:
    if getattr(args, "file", None):
        return load_function_spec(args.file)
    return default_corpus()


def _pick(corpus, name: str) -> SliceSeries:
    for m in corpus:
        if m.name == name:
            return m.series
    raise ValidationError(f"no function named {name!r}")


def _cmd_eval(args) -> int:
    corpus = _corpus_from_args(args)
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
    corpus = _corpus_from_args(args)
    if args.inverse:
        if args.order < 0:
            raise ValidationError(f"--order must be nonnegative, got {args.order}")
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
    omega = parse_majorant(args.omega)
    try:
        cert = check_regular(omega, quad_nodes=args.nodes)
    except ValueError as exc:  # too few panels to check convergence
        raise ValidationError(f"--nodes: {exc}") from exc
    _write_text(to_json({"spec": args.omega, **dataclasses.asdict(cert)}), args.out)
    return 0 if cert.is_regular else 1


_ESTIMATORS = ("slice", "component", "global", "boundary", "boundary-modulus",
               "derivative-full", "derivative-plus", "derivative-minus",
               "schwarz-series", "schwarz-pointwise")


def _cmd_norm(args) -> int:
    corpus = _corpus_from_args(args)
    f = _pick(corpus, args.name)
    plan = SamplePlan(args.pairs, args.points, args.eps, args.rho, args.seed)
    omega = parse_majorant(args.omega)
    omega2 = parse_majorant(args.omega2) if args.omega2 else omega
    units = _slice_units(args.slice)
    i = units.get("i", UNIT_E1)
    kind = args.estimator
    if kind == "slice":
        est = slice_norm(f, omega, i, plan)
    elif kind == "component":
        est = component_norm(f, omega, omega2, i, plan)
    elif kind == "global":
        est = global_norm(f, omega, plan)
    elif kind == "boundary":
        est = boundary_norm(f, omega, i, plan)
    elif kind == "boundary-modulus":
        est = boundary_norm(f, omega, i, plan, values="modulus")
    elif kind.startswith("derivative-"):
        est = derivative_ratio(f, omega, i, kind.split("-", 1)[1], plan)
    else:  # schwarz-series, schwarz-pointwise
        rep = schwarz_pick_criterion(f, omega, i, plan,
                                     interpretation=kind.split("-", 1)[1])
        doc = {"function": args.name, "estimator": kind, **dataclasses.asdict(rep)}
        del doc["interpretation"]  # named by the estimator already
        _write_text(to_json(doc), args.out)
        return 0
    _write_text(to_json({
        "function": args.name,
        "estimator": kind,
        "value": est.value,
        "argmax_pair": [list(p.components()) for p in est.argmax_pair],
        "samples_used": est.samples_used,
    }), args.out)
    return 0


def _slice_units(entries) -> dict:
    units = {}
    for entry in entries or ():
        name, sep, rest = entry.partition("=")
        if not sep:
            raise ParseError(f"--slice expects name=x,y,z, got {entry!r}")
        units[name.strip()] = parse_unit(rest)
    return units


def _config_from_args(args) -> RunConfig:
    if args.config:
        return RunConfig.from_dict(_load_json_object(args.config))
    # verify flags store into the RunConfig field of the same name
    updates = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
               if getattr(args, f.name, None) is not None}
    if args.suite is not None:
        updates["suites"] = tuple(s for s in args.suite.split(",") if s)
    for name, u in _slice_units(args.slice).items():
        if name in ("i", "k"):
            updates[f"slice_{name}"] = (u.v1, u.v2, u.v3)
    return RunConfig(**updates)


def _cmd_verify(args) -> int:
    config = _config_from_args(args)
    reports = run_suite(config)
    return emit_report(reports, args.out, args.format, config=config)


def _cmd_report(args) -> int:
    doc = _load_json_object(args.input)
    if args.format == "json":
        _write_text(to_json(doc), args.out)
    else:
        try:
            text = _csv_summary(doc.get("reports", []))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{args.input}: not a slicereg report: {exc!r}") from exc
        _write_text(text, args.out)
    return 0 if doc.get("all_passed", False) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicereg",
        description="Quaternionic power series: evaluation, norm "
                    "estimators, and property suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate functions at points")
    p.add_argument("--file", help="JSON function spec (default: built-in corpus)")
    p.add_argument("--name", action="append", help="restrict to these names")
    p.add_argument("--at", action="append", required=True,
                   metavar="X0,X1,X2,X3", help="evaluation point")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("star", help="star product or inverse, to JSON")
    p.add_argument("--file")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--inverse")
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("majorant-check", help="certify a majorant spec")
    p.add_argument("--omega", required=True)
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_majorant_check)

    p = sub.add_parser("norm", help="run one estimator")
    p.add_argument("--file")
    p.add_argument("--name", required=True)
    p.add_argument("--estimator", required=True, choices=_ESTIMATORS)
    p.add_argument("--omega", default="power:0.5")
    p.add_argument("--omega2")
    p.add_argument("--slice", action="append", metavar="i=X,Y,Z")
    p.add_argument("--pairs", type=int, default=SamplePlan.n_pairs)
    p.add_argument("--points", type=int, default=SamplePlan.n_points)
    p.add_argument("--eps", type=float, default=SamplePlan.min_separation)
    p.add_argument("--rho", type=float, default=SamplePlan.max_radius)
    p.add_argument("--seed", type=int, default=SamplePlan.seed)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", help="comma-separated suite names (default all)")
    p.add_argument("--seed", type=int)
    p.add_argument("--pairs", type=int, dest="n_pairs")
    p.add_argument("--points", type=int, dest="n_points")
    p.add_argument("--nodes", type=int)
    p.add_argument("--omega", dest="omega_spec")
    p.add_argument("--omega2", dest="omega2_spec")
    p.add_argument("--omega-small", dest="omega_small_spec")
    p.add_argument("--window", type=float)
    p.add_argument("--slice", action="append", metavar="i=X,Y,Z")
    p.add_argument("--corpus", dest="corpus_path",
                   help="JSON function spec replacing the corpus")
    p.add_argument("--config", help="JSON RunConfig; overrides other flags")
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


if __name__ == "__main__":
    sys.exit(main())
