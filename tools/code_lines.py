"""Count the lines and the code lines of Python files.

A code line is a line holding a token other than a comment, a docstring or
a blank line; a token that spans several lines, such as a multi-line
string that is not a docstring, holds each of them.  A docstring is the
string that is the first statement of a module, class or function body.
Lines are found with :mod:`tokenize` and docstrings with :mod:`ast`.

    python tools/code_lines.py [FILE ...]

prints ``lines code_lines path`` per file and a total line; with no
arguments it counts ``src/uvbeams/*.py`` under the repository root.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of ``source`` starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """The lines and the code lines of the Python text ``source``."""
    docstrings = _docstring_starts(source)
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE and not (token.type == tokenize.STRING and token.start in docstrings):
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted((Path(__file__).parents[1] / "src" / "uvbeams").glob("*.py"))
    total_lines = total_code = 0
    for path in paths:
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d} {path}")
    print(f"{total_lines:6d} {total_code:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
