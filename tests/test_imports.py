"""No module of the package imports a name at module level that it never
uses, or defines a private module-level name that it never reads, and no
exported error type goes unraised.

An import counts as used when the module reads it anywhere, annotations
included, or lists it in ``__all__`` (the package root re-exports that way).
A private function, class or constant (``_name``) counts as read when a
module-level statement other than its own definition reads it, so a helper
left behind by a refactor, or one that only calls itself, is found. An error
type in ``errors.__all__`` counts as raised when some other module of the
package constructs it; the two bases are exempt.
"""

import ast
from pathlib import Path

import pytest

import horobound

SOURCES = sorted(Path(horobound.__file__).parent.glob("*.py"))
ERROR_BASES = {"HoroboundError", "Diagnostic"}


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


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
    used.update(exported(tree))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {}  # name -> the top-level statement that binds it
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node
    loaded = [
        {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body
    ]
    return [
        f"line {stmt.lineno}: {name}"
        for name, stmt in defined.items()
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in names for node, names in zip(tree.body, loaded) if node is not stmt)
    ]


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


def test_private_scanner_flags_only_unread_names():
    source = (
        "__all__ = ['public']\n"
        "_LIMIT = 3\n"
        "_UNUSED: int = 4\n"
        "def _helper(x):\n"
        "    return x + _LIMIT\n"
        "def _recurse(n):\n"
        "    return _recurse(n - 1) if n else 0\n"
        "class _Left:\n"
        "    pass\n"
        "def public(x):\n"
        "    return _helper(x)\n"
    )
    assert unread_private_names(source) == [
        "line 3: _UNUSED",
        "line 6: _recurse",
        "line 8: _Left",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_module_level_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """Names in the errors module's ``__all__`` that no other source calls,
    bare or as an attribute, the two bases aside."""
    called = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    called.add(func.id)
                elif isinstance(func, ast.Attribute):
                    called.add(func.attr)
    return [
        name
        for name in exported(ast.parse(errors_source))
        if name not in ERROR_BASES and name not in called
    ]


def test_error_scanner_flags_only_unraised_types():
    errors_source = (
        "__all__ = ['HoroboundError', 'Diagnostic', 'Bare', 'Dotted', 'Left', 'Caught']\n"
        "class Left(Exception):\n"
        "    pass\n"
    )
    sources = [
        "from .errors import Bare, Caught\n"
        "from . import errors\n"
        "def f(x):\n"
        "    try:\n"
        "        raise Bare('no')\n"
        "    except Caught:\n"
        "        raise errors.Dotted(x)\n"
    ]
    assert unraised_errors(errors_source, sources) == ["Left", "Caught"]


def test_every_exported_error_is_raised():
    errors_path = next(p for p in SOURCES if p.name == "errors.py")
    others = [p.read_text(encoding="utf-8") for p in SOURCES if p != errors_path]
    assert unraised_errors(errors_path.read_text(encoding="utf-8"), others) == []
