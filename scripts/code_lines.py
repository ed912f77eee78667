"""Count the code lines of Python source files.

    python3 scripts/code_lines.py src/slicereg

A code line is a line that carries a token of the program: blank lines,
comment lines and the lines of docstrings (the string that opens a module,
class or function body) do not count, and every line of a statement or
expression written over several lines does.  This is the count the
project's records cite as "code lines".

Each PATH is a .py file or a directory, searched recursively for .py files.
Prints one line per PATH, ``COUNT PATH``, and a ``COUNT total`` line when
there are several.  Exit status 2 with an ``error:`` line when a PATH does
not exist or a file does not parse.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of each docstring's string token."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_code_lines(source: str) -> int:
    """The number of lines of source that carry a token other than a
    comment or a docstring."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _files(path: Path) -> list[Path]:
    if path.is_dir():
        return sorted(path.rglob("*.py"))
    if path.is_file():
        return [path]
    raise FileNotFoundError(f"no such file or directory: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path, metavar="PATH",
                        help="a .py file or a directory of them")
    args = parser.parse_args(argv)
    counts = []
    try:
        for path in args.paths:
            counts.append(sum(count_code_lines(f.read_text(encoding="utf-8"))
                              for f in _files(path)))
    except (OSError, SyntaxError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path, n in zip(args.paths, counts):
        print(f"{n} {path}")
    if len(counts) > 1:
        print(f"{sum(counts)} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
