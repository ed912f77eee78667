import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)

DATA = Path(__file__).parent / "data"


def _record(name, checks, passed=True):
    return {"name": name, "passed": passed, "checks": checks,
            "witnesses": {"global": [[0.5, 0.0, 0.25, 0.0], [-0.5, 0.0, -0.25, 0.0]]},
            "failures": [] if passed else [next(iter(checks))], "notes": []}


REPORT = {
    "all_passed": True,
    "config": {"seed": 12345, "n_pairs": 256, "suites": None},
    "reports": [
        {"suite": "inclusion_chain", "passed": True, "tolerances": {"ratio_max": 1.000000001},
         "notes": [],
         "records": [_record("identity", {"global": 0.75, "global_over_6c3": 0.0833}),
                     _record("square", {"global": 1.5, "global_over_6c3": 0.1})]},
        {"suite": "cone_corollary", "passed": True, "tolerances": {"absolute": 1e-09},
         "notes": ["a note"],
         "records": [_record("identity", {"admissible_plus": 12, "crossed_excess": 0.18})]},
    ],
}


def _run(old, new, tmp_path, capsys):
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    code = report_diff.main(paths)
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def _changed(edit):
    new = copy.deepcopy(REPORT)
    edit(new)
    return new


def test_identical_reports(tmp_path, capsys):
    assert _run(REPORT, copy.deepcopy(REPORT), tmp_path, capsys) == (
        0, ["summary: identical"], "")


def test_a_golden_report_against_itself(capsys):
    path = str(DATA / "verify_small.json")
    assert report_diff.main([path, path]) == 0
    assert capsys.readouterr().out == "summary: identical\n"


def test_one_value_moved(tmp_path, capsys):
    def edit(doc):
        doc["reports"][1]["records"][0]["checks"]["crossed_excess"] = 0.18000000000000002
    code, lines, _ = _run(REPORT, _changed(edit), tmp_path, capsys)
    assert code == 1
    assert lines == [
        "changed check cone_corollary/identity/crossed_excess: 0.18 -> 0.18000000000000002 "
        "(rel +1.54e-16)",
        "summary: 0 added, 0 removed, 1 changed, 0 reordered, 0 flipped, 0 config"]


def test_a_witness_coordinate_and_a_tolerance_moved(tmp_path, capsys):
    def edit(doc):
        doc["reports"][0]["records"][1]["witnesses"]["global"][1][2] = -0.5
        doc["reports"][0]["tolerances"]["ratio_max"] = 1.0
        # a witness of another shape is shown whole
        doc["reports"][1]["records"][0]["witnesses"]["global"].pop()
    code, lines, _ = _run(REPORT, _changed(edit), tmp_path, capsys)
    assert code == 1
    assert lines == [
        "changed tolerance inclusion_chain/ratio_max: 1.000000001 -> 1.0 (rel -1e-09)",
        "changed witness inclusion_chain/square/global[1][2]: -0.25 -> -0.5 (rel -1)",
        "changed witness cone_corollary/identity/global: [[0.5, 0.0, 0.25, 0.0], "
        "[-0.5, 0.0, -0.25, 0.0]] -> [[0.5, 0.0, 0.25, 0.0]] (rel null)",
        "summary: 0 added, 0 removed, 3 changed, 0 reordered, 0 flipped, 0 config"]


def test_labels_records_suites_and_notes_added_or_removed(tmp_path, capsys):
    def edit(doc):
        chain, cone = doc["reports"]
        del cone["records"][0]["checks"]["admissible_plus"]
        chain["records"][0]["checks"]["slice_sum_norm"] = 0.75
        chain["records"].pop()
        cone["notes"] = ["another note"]
        doc["reports"].append({"suite": "norm_equivalences", "passed": True,
                               "tolerances": {}, "notes": [], "records": []})
    code, lines, _ = _run(REPORT, _changed(edit), tmp_path, capsys)
    assert code == 1
    assert lines == [
        "added suite norm_equivalences",
        "removed record inclusion_chain/square",
        "added check inclusion_chain/identity/slice_sum_norm",
        "removed note cone_corollary: a note",
        "added note cone_corollary: another note",
        "removed check cone_corollary/identity/admissible_plus",
        "summary: 3 added, 3 removed, 0 changed, 0 reordered, 0 flipped, 0 config"]


def test_a_verdict_flips_and_a_config_field_differs(tmp_path, capsys):
    def edit(doc):
        doc["all_passed"] = False
        doc["config"]["n_pairs"] = 512
        chain = doc["reports"][0]
        chain["passed"] = False
        chain["records"][0] = _record("identity", chain["records"][0]["checks"], passed=False)
    code, lines, _ = _run(REPORT, _changed(edit), tmp_path, capsys)
    assert code == 1
    assert lines == [
        "config n_pairs: 256 -> 512",
        "flipped all_passed: true -> false",
        "flipped suite inclusion_chain: true -> false",
        "flipped record inclusion_chain/identity: true -> false",
        "added failure inclusion_chain/identity: global",
        "summary: 1 added, 0 removed, 0 changed, 0 reordered, 3 flipped, 1 config"]


def test_a_non_finite_value_reads_null(tmp_path, capsys):
    # the report writes a non-finite value as null; its relative change,
    # and one from 0, is not finite either
    def edit(doc):
        checks = doc["reports"][0]["records"][0]["checks"]
        checks["global"], checks["global_over_6c3"] = None, 0.0
    old = _changed(lambda doc: doc["reports"][0]["records"][0]["checks"].update(
        global_over_6c3=0))
    code, lines, _ = _run(old, _changed(edit), tmp_path, capsys)
    assert code == 1
    assert lines == [
        "changed check inclusion_chain/identity/global: 0.75 -> null (rel null)",
        "summary: 0 added, 0 removed, 1 changed, 0 reordered, 0 flipped, 0 config"]
    code, lines, _ = _run(REPORT, old, tmp_path, capsys)
    assert lines[0] == ("changed check inclusion_chain/identity/global_over_6c3: "
                        "0.0833 -> 0 (rel -1)")
    code, lines, _ = _run(old, REPORT, tmp_path, capsys)
    assert lines[0] == ("changed check inclusion_chain/identity/global_over_6c3: "
                        "0 -> 0.0833 (rel null)")


def test_reordered_records_differ(tmp_path, capsys):
    code, lines, _ = _run(REPORT, _changed(lambda doc: doc["reports"][0]["records"].reverse()),
                          tmp_path, capsys)
    assert (code, lines[0]) == (1, "reordered records inclusion_chain")


def test_a_repeated_suite_name_is_matched_by_occurrence(tmp_path, capsys):
    twice = _changed(lambda doc: doc["reports"].append(copy.deepcopy(doc["reports"][1])))
    code, lines, _ = _run(REPORT, twice, tmp_path, capsys)
    assert (code, lines[0]) == (1, "added suite cone_corollary#2")


@pytest.mark.parametrize("text, reason", [
    ("suite,function,passed\n", "Expecting value"),
    ('{"all_passed": true, "config": {}}', "not a verify report: the top level"),
    (json.dumps(_changed(lambda doc: doc["reports"][0]["records"][0].pop("witnesses"))),
     "not a verify report: reports[0].records[0] does not have exactly the keys"),
    (json.dumps(_changed(lambda doc: doc["reports"][0]["records"][0]["checks"].update(
        {"global": "0.75"}))), "reports[0].records[0].checks holds a value"),
    (json.dumps(REPORT).replace("0.75", "NaN"), "neither a finite number nor null"),
    (json.dumps(_changed(lambda doc: doc["reports"][1].update(notes=[1]))),
     "reports[1].notes holds a non-string"),
], ids=["csv", "no_reports", "record_keys", "string_value", "nan_literal", "note_type"])
def test_a_file_that_is_not_a_verify_report(text, reason, tmp_path, capsys):
    for old, new in ((text, REPORT), (REPORT, text)):
        code, lines, err = _run(old, new, tmp_path, capsys)
        assert code == 2 and lines == []
        assert err.startswith("error: ") and reason in err


def test_a_missing_file(tmp_path, capsys):
    path = str(DATA / "verify_small.json")
    assert report_diff.main([path, str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
