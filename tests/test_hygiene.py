"""Every name a library module imports is used in that module.

``__init__.py`` is exempt: it imports names only to re-export them.
"""

import ast
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
