"""No module of the package imports a name at module level that it never
uses, defines a private module-level name that it never reads, exports a
name that nothing reaches, or takes a parameter that it never reads, and no
exported error type goes unraised.

An import counts as used when the module reads it anywhere, annotations
included; listing it in ``__all__`` does not count, as no module re-exports.
A private function, class or constant (``_name``) counts as read when a
module-level statement other than its own definition reads it, so a helper
left behind by a refactor, or one that only calls itself, is found. An
exported name counts as reached when the command line reaches it (see
``unreached_exports``) or ``KEPT`` names what it serves. An error type in
``errors.__all__`` counts as raised when some other module of the package
constructs it; the two bases are exempt. A parameter counts as read when
its function's body loads it anywhere, nested functions included; see
``unread_parameters`` for the signatures an interface fixes.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import horobound

SOURCES = sorted(Path(horobound.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
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
    assert unused_imports(source) == ["line 2: os", "line 3: field", "line 5: alias"]


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


# exports that no command reaches, each with what it serves: the acceptance
# criterion, test oracle or benchmark file that reads it ("path" or
# "path::definition")
KEPT = {
    "annihilator.functional_annihilator": (
        "tests/test_acceptance.py::test_criterion_05_annihilator_coincidence",
    ),
    "boundary.sign_match": ("tests/test_acceptance.py::test_criterion_07_sign_proportionality",),
    "cayley.segment": (
        "tests/test_acceptance.py::test_criterion_06_interval_monotonicity",
        "perfbench/workloads.py::BusemannSweep",  # the busemann_sweep workload
    ),
    "examples.example": (
        "perfbench/workloads.py::_Stream",  # the busemann_sweep workload
        "perfbench/capture.py",
    ),
}


def unreached_exports(sources: dict[str, str], root: str, kept) -> list[str]:
    """``module.name`` for each name in a module's ``__all__`` that is not reached.

    Every statement of the root module is reached, and so is every other
    module-level statement that is not a definition or a package import. A
    name such a statement loads is reached, followed through
    ``from .x import y`` to the module defining it, and the whole of a
    reached top-level definition (function, class or assignment) is read in
    turn. Names in ``kept`` ("module.name") are reached too. A name a module
    only imports and lists in ``__all__`` is never its own, so a re-export
    is flagged; dunder names are package metadata and exempt.
    """
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    defined: dict[tuple[str, str], ast.stmt] = {}
    imported: dict[tuple[str, str], tuple[str, str]] = {}  # local -> origin
    todo: list[tuple[str, ast.stmt]] = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[mod, alias.asname or alias.name] = (node.module, alias.name)
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                defined[mod, name] = node
            if mod == root or not names:
                todo.append((mod, node))
    reached: set[tuple[str, str]] = set()

    def reach(key: tuple[str, str]) -> None:
        while key in imported:
            key = imported[key]
        if key in defined and key not in reached:
            reached.add(key)
            todo.append((key[0], defined[key]))

    for name in kept:
        reach(tuple(name.split(".")))
    while todo:
        mod, node = todo.pop()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reach((mod, n.id))
    return [
        f"{mod}.{name}"
        for mod, tree in trees.items()
        for name in exported(tree)
        if not name.startswith("__") and (mod, name) not in reached
    ]


def test_no_module_imports_the_examples():
    # the example groups are fixtures for the tests and the benchmark; the
    # package builds its one chain, the lamplighter windows, in metrics
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                assert not any("examples" in name.split(".") for name in names), path.name


def test_reach_scanner_flags_only_unreached_exports():
    sources = {
        "cli": "from .x import entry as run\nrun()\n",
        "x": (
            "__all__ = ['entry', 'inner', 'stray', 'table']\n"
            "LIMIT = 3\n"
            "def entry():\n"
            "    return inner() + LIMIT\n"
            "def inner():\n"
            "    return 1\n"
            "def stray():\n"
            "    return 2\n"
            "def unreached():\n"
            "    return stray()\n"
            "def table():\n"
            "    return 4\n"
        ),
        "y": "from .x import inner as again\n__all__ = ['again', '__version__']\n",
    }
    assert unreached_exports(sources, "cli", ["x.table"]) == ["x.stray", "y.again"]


def test_every_export_is_reached_or_kept():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreached_exports(sources, "cli", KEPT) == []
    # each kept name is exported, and nothing but the table reaches it
    assert set(KEPT) <= set(unreached_exports(sources, "cli", ()))


def reads(source: str, definition: str | None, dotted: str) -> bool:
    """Whether ``definition`` (a top-level def or class; the whole file when
    None) loads ``module.name`` as ``module.name`` after ``from horobound import
    module``, or as ``name`` after ``from horobound.module import name``."""
    module, name = dotted.split(".")
    tree = ast.parse(source)
    imports = {
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname is None
    }
    scope = tree
    if definition is not None:
        scope = next(node for node in tree.body if getattr(node, "name", None) == definition)
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id == name
            and (f"horobound.{module}", name) in imports
        ):
            return True
        if (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.value, ast.Name)
            and node.value.id == module
            and ("horobound", module) in imports
        ):
            return True
    return False


def test_reads_scanner_follows_the_import():
    source = (
        "from horobound import cayley\n"
        "from horobound.examples import example\n"
        "from other import segment\n"
        "def sweep():\n"
        "    return cayley.segment(), example()\n"
        "def other():\n"
        "    return segment()\n"
    )
    assert reads(source, "sweep", "cayley.segment")
    assert reads(source, None, "examples.example")
    assert not reads(source, "other", "cayley.segment")
    assert not reads(source, "other", "examples.example")


@pytest.mark.parametrize("dotted", sorted(KEPT))
def test_kept_export_is_read_by_what_it_serves(dotted):
    for reader in KEPT[dotted]:
        path, _, definition = reader.partition("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert reads(source, definition or None, dotted), reader


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


def _defs(node: ast.AST, owner: ast.ClassDef | None = None, prefix: str = ""):
    """(qualified name, the class whose method it is or None, the def) for
    every function under node, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defs(child, child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{child.name}", owner, child
            yield from _defs(child, None, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, owner, prefix)


def _parameters(fn: ast.FunctionDef, method: bool) -> tuple[str, ...]:
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
    if method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def _is_stub(fn: ast.FunctionDef) -> bool:
    """Whether the body, its docstring aside, only raises NotImplementedError."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """``module.qualname: parameter`` for each parameter, ``self`` and ``cls``
    aside, that its function's body never loads.

    Two kinds of function are exempt, since the signature is not theirs to
    trim: stubs that only raise NotImplementedError, and methods whose name
    and parameters another class repeats (an override and the method it
    overrides, or two classes that serve one interface).
    """
    found = [
        (mod, name, owner, fn)
        for mod, source in sources.items()
        for name, owner, fn in _defs(ast.parse(source))
    ]
    shared = Counter((fn.name, _parameters(fn, True)) for _, _, owner, fn in found if owner)
    out = []
    for mod, name, owner, fn in found:
        params = _parameters(fn, owner is not None)
        if _is_stub(fn) or (owner is not None and shared[fn.name, params] > 1):
            continue
        loaded = {
            n.id
            for stmt in fn.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out.extend(f"{mod}.{name}: {p}" for p in params if p not in loaded)
    return out


def test_parameter_scanner_flags_only_unread_parameters():
    sources = {
        "x": (
            "def scan(prefix, m, ball, k_max=None):\n"
            "    def inner(step):\n"
            "        return prefix[step] + m\n"
            "    return inner(k_max)\n"
            "def unused(*args, **kwargs):\n"
            "    return 0\n"
            "class Base:\n"
            "    def keys(self, gens, radius):\n"
            "        return gens\n"
            "    def parse(self, text):\n"
            "        'A stub.'\n"
            "        raise NotImplementedError\n"
            "    def size(self, key):\n"
            "        return 1\n"
            "class Child(Base):\n"
            "    def keys(self, gens, radius):\n"
            "        return radius\n"
        ),
        "y": (
            "class Table:\n"
            "    @staticmethod\n"
            "    def absorbs(x, sub):\n"
            "        return False\n"
            "    def size(self, r):\n"
            "        return 2\n"
            "class Window:\n"
            "    def absorbs(self, x, sub):\n"
            "        return x in sub\n"
        ),
    }
    assert unread_parameters(sources) == [
        "x.scan: ball",
        "x.unused: args",
        "x.unused: kwargs",
        "x.Base.size: key",
        "y.Table.size: r",
    ]


def test_every_parameter_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_parameters(sources) == []
