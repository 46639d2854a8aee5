"""Every import in the package and its tests is used."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name a module imports, at any depth, and never
    reads.  A name listed in the module's ``__all__`` counts as read: it is
    re-exported."""
    imported = {}
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "sympair").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 20
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in paths for line, name in _unused_imports(path.read_text())]
    assert unused == []


def test_the_import_check_finds_what_is_unused():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "import sys as system\nfrom a import b, c\n__all__ = ['c']\n\n\n"
              "def f():\n    import json\n    return system.path\n")
    assert _unused_imports(source) == [(2, "os"), (3, "osp"), (5, "b"), (10, "json")]
