"""The line counter in ``tools/code_lines.py``: a code line holds a token
other than a comment, a docstring or a blank line."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 17 lines: the module docstring (2), the class and function docstrings,
# the comment-only line and the blank lines are not code; the import, the
# class and def lines and the multi-line call (4, two of them a string that
# is not a docstring) are, 7 in all.
FIXTURE = '''"""Module docstring
on two lines."""

import os  # a trailing comment


class C:
    """Class docstring."""


def f(x):
    """Function docstring."""
    # a comment-only line
    return os.path.join(
        x,
        """not a
docstring""")
'''


def test_counts_lines_and_code_lines_by_the_rule():
    assert code_lines.count(FIXTURE) == (17, 7)


def test_prints_each_file_and_the_total(tmp_path):
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    for path in paths:
        path.write_text(FIXTURE, encoding="utf-8")
    proc = subprocess.run([sys.executable, str(TOOL), *map(str, paths)], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [f"    17      7 {paths[0]}", f"    17      7 {paths[1]}", "    34     14 total"]
