"""No module of the package imports a name at module level that it never uses.

A name counts as used when the module reads it anywhere, annotations
included, or lists it in ``__all__`` (the package root re-exports that way).
"""

import ast
from pathlib import Path

import pytest

import horobound

SOURCES = sorted(Path(horobound.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import Sequence\n"
        "from .x import exported as alias\n"
        "__all__ = ['alias']\n"
        "@dataclass\n"
        "class A:\n"
        "    xs: Sequence[int]\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: field"]


def test_sources_are_found():
    # an empty list would pass the check below without looking at anything
    assert len(SOURCES) >= 12 and any(p.name == "vabelian.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
