"""The exported names: every name in an ``__all__`` resolves, so a name
deleted from a module cannot linger in its own or the package's list."""
import importlib
import pkgutil

import pytest

import twoqubit

MODULES = ["twoqubit"] + [
    f"twoqubit.{m.name}" for m in pkgutil.iter_modules(twoqubit.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # raises AttributeError on a stale name
    assert set(exported) <= set(namespace)


def test_package_exports_every_readme_name():
    assert len(set(twoqubit.__all__)) == len(twoqubit.__all__)
    for name in ("canonical_point", "invariants_from_unitary", "is_perfect_entangler",
                 "schmidt_decompose", "SchmidtData", "locally_equivalent", "ClassData"):
        assert name in twoqubit.__all__
