"""Every exported name resolves, none is exported twice, and the package
root re-exports only names its defining module exports too."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import horobound

MODULES = ["horobound"] + [
    f"horobound.{info.name}" for info in pkgutil.iter_modules(horobound.__path__)
]


def test_module_discovery_finds_the_package():
    # an empty list would skip the check below without failing
    assert len(MODULES) >= 12 and "horobound.vabelian" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(
        x for x in set(exported) if exported.count(x) > 1
    )
    missing = [x for x in exported if not hasattr(module, x)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"


def test_root_exports_are_exported_where_defined():
    # name -> the submodule the package root imports it from; a name dropped
    # from its module's __all__ must not linger in the root
    tree = ast.parse(inspect.getsource(horobound))
    source = {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    exported = [x for x in horobound.__all__ if x != "__version__"]
    assert len(exported) > 70
    stray = [x for x in exported if x not in source]
    assert not stray, f"the root exports names no submodule gives it: {stray}"
    unlisted = [
        f"{source[x]}.{x}"
        for x in exported
        if x not in importlib.import_module(f"horobound.{source[x]}").__all__
    ]
    assert not unlisted, unlisted
