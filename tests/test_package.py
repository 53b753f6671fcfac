"""The package namespace is the union of its modules' public names, and
every module-level import in the package is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_module_imports_are_used():
    # a module-level import that nothing in its module reads is dead code
    unused = []
    for path in sorted(Path(cavres.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused
