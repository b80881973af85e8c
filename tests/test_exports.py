"""Every exported name resolves and none is exported twice."""

import importlib
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

