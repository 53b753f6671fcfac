"""The package namespace is the union of its modules' public names."""

import importlib
import pkgutil

import cavres


def test_exports_are_the_union_of_module_exports():
    union = set()
    for info in pkgutil.iter_modules(cavres.__path__):
        module = importlib.import_module(f"cavres.{info.name}")
        names = getattr(module, "__all__", [])
        for name in names:
            assert hasattr(module, name), f"cavres.{info.name}.__all__ lists missing {name!r}"
        union.update(names)
    assert len(cavres.__all__) == len(set(cavres.__all__))
    assert set(cavres.__all__) == union | {"__version__"}
    for name in cavres.__all__:
        assert hasattr(cavres, name), name
