"""Explain every difference between two verify reports.

    python3 scripts/report_diff.py tests/data/verify_small.json new.json

OLD and NEW are JSON reports written by ``slicereg verify``.  The script
walks ``reports[*].records[*]`` as the CSV summary does, but over every
check, witness, failure and note, where the CSV keeps only the first check,
and prints one line per difference:

    added|removed suite S, record S/R, check S/R/L, witness S/R/L,
        tolerance S/L, failure S/R: L, note S: TEXT, note S/R: TEXT
    changed check S/R/L: OLD -> NEW (rel X)
    changed witness S/R/L[point][coordinate]: OLD -> NEW (rel X)
    changed tolerance S/L: OLD -> NEW (rel X)
    reordered suites, records S, notes S, notes S/R, failures S/R
    flipped all_passed, suite S, record S/R: OLD -> NEW
    added|removed config field FIELD
    config FIELD: OLD -> NEW

Suites and records are matched by name, a repeated name by its
occurrence (``S#2``).  A value is written as JSON, ``null`` being a
non-finite value as the report writes it; the relative change
(NEW - OLD)/|OLD| is ``null`` when it is not finite.  The last line counts
the lines by kind, or reads ``summary: identical``.

Exit status: 0 when the two reports are identical, 1 when they differ, 2
with an ``error:`` line when a file is not a verify report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

KINDS = ("added", "removed", "changed", "reordered", "flipped", "config")
_PLURAL = {"witness": "witnesses"}

_TOP = {"all_passed": bool, "config": dict, "reports": list}
_SUITE = {"suite": str, "passed": bool, "tolerances": dict, "notes": list, "records": list}
_RECORD = {"name": str, "passed": bool, "checks": dict, "witnesses": dict,
           "failures": list, "notes": list}


class NotAReport(ValueError):
    pass


def _is_value(v) -> bool:
    """null, or a finite number: the report writes a non-finite one as null."""
    return v is None or (isinstance(v, (int, float)) and not isinstance(v, bool)
                         and math.isfinite(v))


def _require(obj, fields: dict, where: str):
    if not isinstance(obj, dict) or set(obj) != set(fields):
        raise NotAReport(f"{where} does not have exactly the keys {', '.join(fields)}")
    for key, kind in fields.items():
        if not isinstance(obj[key], kind):
            raise NotAReport(f"{where}: {key} is not a {kind.__name__}")


def _require_strings(items, where: str):
    if not all(isinstance(x, str) for x in items):
        raise NotAReport(f"{where} holds a non-string")


def _require_values(values: dict, where: str):
    if not all(_is_value(v) for v in values.values()):
        raise NotAReport(f"{where} holds a value that is neither a finite number nor null")


def validate(doc):
    """Raise NotAReport unless doc has the shape slicereg verify writes."""
    _require(doc, _TOP, "the top level")
    for n, suite in enumerate(doc["reports"]):
        _require(suite, _SUITE, f"reports[{n}]")
        _require_values(suite["tolerances"], f"reports[{n}].tolerances")
        _require_strings(suite["notes"], f"reports[{n}].notes")
        for k, rec in enumerate(suite["records"]):
            where = f"reports[{n}].records[{k}]"
            _require(rec, _RECORD, where)
            _require_values(rec["checks"], f"{where}.checks")
            _require_strings(rec["failures"], f"{where}.failures")
            _require_strings(rec["notes"], f"{where}.notes")
            for label, points in rec["witnesses"].items():
                if not (isinstance(points, list) and all(
                        isinstance(p, list) and all(_is_value(c) for c in p) for p in points)):
                    raise NotAReport(f"{where}.witnesses.{label} is not a list of points")


def load_report(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NotAReport(f"{path}: {exc}") from None
    try:
        validate(doc)
    except NotAReport as exc:
        raise NotAReport(f"{path}: not a verify report: {exc}") from None
    return doc


def _moved(old, new) -> str:
    """OLD -> NEW (rel X) in JSON; X is null unless both are numbers and
    the relative change is finite."""
    rel = math.nan
    if isinstance(old, (int, float)) and isinstance(new, (int, float)) and old != 0:
        rel = (new - old) / abs(old)
    rel_text = format(rel, "+.3g") if math.isfinite(rel) else "null"
    return f"{json.dumps(old)} -> {json.dumps(new)} (rel {rel_text})"


def _keyed(items: list, field: str) -> dict:
    """items by name, a repeated name suffixed with its occurrence."""
    seen, out = Counter(), {}
    for item in items:
        name = item[field]
        seen[name] += 1
        out[name if seen[name] == 1 else f"{name}#{seen[name]}"] = item
    return out


class _Diff:
    def __init__(self):
        self.lines: list[tuple[str, str]] = []

    def add(self, kind: str, text: str):
        self.lines.append((kind, f"{kind} {text}"))

    def matched(self, what: str, old: dict, new: dict, where: str = "") -> list:
        """Report the names only one side holds; return the shared ones."""
        for kind, ours, theirs in (("removed", old, new), ("added", new, old)):
            for key in ours:
                if key not in theirs:
                    self.add(kind, f"{what} {where}{key}")
        shared = [key for key in old if key in new]
        if shared != [key for key in new if key in old]:
            self.add("reordered", f"{_PLURAL.get(what, what + 's')} {where.rstrip('/')}".rstrip())
        return shared

    def strings(self, what: str, old: list, new: list, where: str):
        """Added and removed entries of a list of strings, and a reorder."""
        gone, extra = Counter(old) - Counter(new), Counter(new) - Counter(old)
        for kind, entries in (("removed", gone), ("added", extra)):
            for text in entries.elements():
                self.add(kind, f"{what} {where}: {text}")
        if not gone and not extra and old != new:
            self.add("reordered", f"{what}s {where}")

    def values(self, what: str, old: dict, new: dict, where: str):
        for label in self.matched(what, old, new, where):
            a, b = old[label], new[label]
            if a != b:
                self.add("changed", f"{what} {where}{label}: {_moved(a, b)}")

    def flag(self, what: str, old: bool, new: bool):
        if old != new:
            self.add("flipped", f"{what}: {json.dumps(old)} -> {json.dumps(new)}")

    def witnesses(self, old: dict, new: dict, where: str):
        for label in self.matched("witness", old, new, where):
            a, b = old[label], new[label]
            if [len(p) for p in a] != [len(p) for p in b]:
                self.add("changed", f"witness {where}{label}: {_moved(a, b)}")
                continue
            for p, (pa, pb) in enumerate(zip(a, b)):
                for c, (x, y) in enumerate(zip(pa, pb)):
                    if x != y:
                        self.add("changed",
                                 f"witness {where}{label}[{p}][{c}]: {_moved(x, y)}")


def diff(old: dict, new: dict) -> list[tuple[str, str]]:
    """(kind, line) for every difference between two validated reports."""
    d = _Diff()
    for field in d.matched("config field", old["config"], new["config"]):
        if old["config"][field] != new["config"][field]:
            d.add("config", f"{field}: {json.dumps(old['config'][field])} -> "
                            f"{json.dumps(new['config'][field])}")
    d.flag("all_passed", old["all_passed"], new["all_passed"])
    old_suites, new_suites = _keyed(old["reports"], "suite"), _keyed(new["reports"], "suite")
    for s in d.matched("suite", old_suites, new_suites):
        a, b = old_suites[s], new_suites[s]
        d.flag(f"suite {s}", a["passed"], b["passed"])
        d.values("tolerance", a["tolerances"], b["tolerances"], f"{s}/")
        d.strings("note", a["notes"], b["notes"], s)
        old_recs, new_recs = _keyed(a["records"], "name"), _keyed(b["records"], "name")
        for r in d.matched("record", old_recs, new_recs, f"{s}/"):
            ra, rb, where = old_recs[r], new_recs[r], f"{s}/{r}"
            d.flag(f"record {where}", ra["passed"], rb["passed"])
            d.values("check", ra["checks"], rb["checks"], f"{where}/")
            d.witnesses(ra["witnesses"], rb["witnesses"], f"{where}/")
            d.strings("failure", ra["failures"], rb["failures"], where)
            d.strings("note", ra["notes"], rb["notes"], where)
    return d.lines


def summary(lines: list[tuple[str, str]]) -> str:
    if not lines:
        return "summary: identical"
    counts = Counter(kind for kind, _ in lines)
    return "summary: " + ", ".join(f"{counts[kind]} {kind}" for kind in KINDS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the earlier report, such as a golden file")
    parser.add_argument("new", help="the report to compare with it")
    args = parser.parse_args(argv)
    try:
        old, new = load_report(args.old), load_report(args.new)
    except NotAReport as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = diff(old, new)
    for _, line in lines:
        print(line)
    print(summary(lines))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
