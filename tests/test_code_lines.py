import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# each line that counts ends in "# +"; the comment is not what makes it count
SNIPPET = '''"""A module docstring
over two lines."""

import math  # +

# a comment line


class Shape:  # +
    """A class docstring."""

    sides = 4  # +

    def area(self, a,  # +
             b):  # +
        """A function docstring
        over several lines.

        """
        total = (a  # +
                 * b  # +

                 + math.pi)  # +
        return total  # +


def banner():  # +
    return """a string that is not a docstring  # +
spans three lines  # +
and each counts"""  # +
'''


def test_a_snippet_counts_the_lines_that_carry_code():
    expected = sum(line.endswith("# +") for line in SNIPPET.splitlines())
    assert expected == 13
    assert code_lines.count_code_lines(SNIPPET) == expected


def test_a_line_with_code_beside_a_docstring_counts():
    assert code_lines.count_code_lines('def f(): "doc"\n') == 1
    assert code_lines.count_code_lines('"""only a docstring"""\n# and a comment\n') == 0


def test_the_command_prints_each_path_and_a_total(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text(SNIPPET)
    (pkg / "sub" / "b.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "notes.txt").write_text("x = 1\n")
    single = pkg / "sub" / "b.py"
    assert code_lines.main([str(pkg), str(single)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"15 {pkg}", f"2 {single}", "17 total"]
    assert code_lines.main([str(single)]) == 0
    assert capsys.readouterr().out == f"2 {single}\n"


def test_a_missing_path_or_a_file_that_does_not_parse_exits_two(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    bad = tmp_path / "bad.py"
    bad.write_text("def f(:\n")
    assert code_lines.main([str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")
