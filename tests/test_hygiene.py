"""Every name a library module imports is used in that module, and every
name it defines is referenced somewhere in the project.

``__init__.py`` is exempt from both: it imports names only to re-export them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ktaquin"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_detects_an_unused_import():
    source = "from os import path, sep\nimport json\nprint(sep)\n"
    assert unused_imports(source) == ["json (line 2)", "path (line 1)"]


def test_counts_attribute_and_annotation_uses():
    source = (
        "from __future__ import annotations\nimport json\nfrom typing import Iterator\n"
        "def f() -> Iterator[int]:\n    return json.loads('[]')\n"
    )
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


ROOT = SRC.parent.parent
REFERENCE_DIRS = ("src", "tests", "demos")


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Non-dunder top-level names and methods, with the node that defines each."""
    defs: list[tuple[str, ast.AST]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.extend((t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            defs.extend((m.name, m) for m in node.body if isinstance(m, ast.FunctionDef))
    return [(name, node) for name, node in defs if not (name.startswith("__") and name.endswith("__"))]


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, node id) for every name, attribute and imported name in a tree."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, id(node)))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, id(node)))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, id(alias)) for alias in node.names)
    return refs


def unreferenced_names(defining: dict[str, str], referencing: list[str]) -> list[str]:
    """Names defined in the ``defining`` sources that no source refers to outside their definition."""
    trees = {label: ast.parse(source) for label, source in defining.items()}
    refs: dict[str, list[int]] = {}
    for tree in [*trees.values(), *map(ast.parse, referencing)]:
        for name, key in _references(tree):
            refs.setdefault(name, []).append(key)
    found = []
    for label, tree in trees.items():
        for name, node in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if all(key in inside for key in refs.get(name, ())):
                found.append(f"{label}:{name}")
    return found


def test_detects_an_unreferenced_name():
    # a name used only inside its own definition counts as unreferenced
    lib = (
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class K:\n    def m(self):\n        return self\n"
        "DEAD = 1\n"
    )
    assert unreferenced_names({"lib": lib}, ["used(); K().x"]) == ["lib:recursive", "lib:m", "lib:DEAD"]


def test_every_name_is_referenced():
    defining = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    referencing = [
        p.read_text(encoding="utf-8")
        for d in REFERENCE_DIRS
        for p in sorted((ROOT / d).rglob("*.py"))
        if p.parent != SRC or p.name == "__init__.py"
    ]
    assert unreferenced_names(defining, referencing) == []


def test_cli_import_starts_no_process_machinery():
    # every CLI call and every benchmark worker pays for what ``ktaquin.cli`` imports
    probe = (
        "import sys\nimport ktaquin.cli\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
