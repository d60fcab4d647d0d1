"""No dead names in the package: each module reads every name it imports,
and some module reads every module-level private function, class and
constant.  ``from __future__`` imports and star re-exports are exempt."""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "uvbeams"


def dead_names(package: Path) -> list[tuple[str, str]]:
    """``(module file, name)`` for each import its module never reads and
    each module-level private definition no module of ``package`` reads."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    read = {
        name: {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for name, tree in trees.items()
    }
    # A private name also counts as read through an attribute, module._name.
    read_anywhere = set().union(*read.values()) | {
        node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    dead = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound != "*" and bound not in read[name]:
                        dead.append((name, bound))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for private in defined:
                if private.startswith("_") and not private.startswith("__") and private not in read_anywhere:
                    dead.append((name, private))
    return dead


def test_the_package_has_no_dead_names():
    assert dead_names(PACKAGE) == []


def probe(tmp_path: Path, module: str, edit) -> Path:
    """A copy of the package with ``module``'s text passed through ``edit``."""
    copy = tmp_path / "uvbeams"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / module
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return copy


def test_an_unread_import_is_found(tmp_path):
    copy = probe(tmp_path, "analysis.py", lambda text: text.replace("import math\n", "import math\nimport os\n", 1))
    assert dead_names(copy) == [("analysis.py", "os")]


def test_an_unread_private_helper_is_found(tmp_path):
    copy = probe(tmp_path, "layout.py", lambda text: text + "\n\ndef _helper():\n    return 0\n")
    assert dead_names(copy) == [("layout.py", "_helper")]
