"""The package namespace is the union of its modules' public names, every
module-level import in the package is used, every module-level private name,
public function and class (but the API-only switch_off_decay) and every
method of a package class is read somewhere in the package, one
function builds the sample operator's probes, the pair updates take only
contiguous rows from one caller, every dataclass field that a config sets
has one config key, every entry point that the benchmark's tracer wraps is
still where it looks, and importing the package leaves out the modules it
does not need."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
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


def _package_trees():
    return {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(cavres.__file__).parent.glob("*.py"))
    }


def _names_read(trees):
    """Every name, attribute and imported name the package code reads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def test_private_helpers_are_referenced():
    # a module-level _name that no code in the package reads is a helper
    # left behind by a deletion; a public function or class that no code in
    # the package reads serves only the tests, and belongs with the reference
    # forms in tests/oracles.py.  switch_off_decay is the one entry point
    # that only API callers use.
    trees = _package_trees()
    read = _names_read(trees) | {"switch_off_decay"}
    orphans = []
    for filename, tree in trees.items():
        for node in tree.body:
            public_def = False
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                public_def = not node.name.startswith("_")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            for name in names:
                private = name.startswith("_") and not name.startswith("__")
                if (private or public_def) and name not in read:
                    orphans.append(f"{filename}:{node.lineno} {name}")
    assert not orphans, orphans


def test_methods_are_read_by_the_package():
    # a method of a package class that no package code reads serves only
    # the tests, and belongs with the reference forms in tests/oracles.py
    trees = _package_trees()
    read = _names_read(trees)
    unread = []
    for filename, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (
                    isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("__")
                    and node.name not in read
                ):
                    unread.append(f"{filename}:{node.lineno} {cls.name}.{node.name}")
    assert not unread, unread


def test_probe_builder_has_one_caller():
    # R and the four branch maps are read off one paired-probe path; a
    # second function that reads the probe builder is a second read-off
    callers = set()

    def visit(node, filename, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, filename, child.name)
                continue
            reads = (
                isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                and child.id == "_probes"
            ) or (isinstance(child, ast.Attribute) and child.attr == "_probes")
            if reads:
                callers.add(f"{filename}:{owner}")
            visit(child, filename, owner)

    for filename, tree in _package_trees().items():
        visit(tree, filename, "<module>")
    assert len(callers) == 1, sorted(callers)


def test_pair_updates_take_contiguous_rows(monkeypatch):
    # TransitKernel.propagate_batched does both halves of U X U' as row
    # updates with a transposed copy in between; a second caller of
    # _apply_left, or a swapaxes view handed to it, would bring back the
    # strided column update, with which a slice's pair update at n_max 60
    # took about 1.45 times as long
    readers = set()

    def visit(node, filename, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, filename, f"{owner}.{child.name}" if owner else child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == "_apply_left") or (
                isinstance(child, ast.Attribute) and child.attr == "_apply_left"
            ):
                readers.add(f"{filename}:{owner}")
            visit(child, filename, owner)

    for filename, tree in _package_trees().items():
        visit(tree, filename, "")
    assert readers == {"dynamics.py:TransitKernel.propagate_batched"}

    import numpy as np
    import cavres.dynamics as dyn
    from cavres.fock import HilbertConfig
    from cavres.thermal import CavityParams

    strided = []
    original = dyn._apply_left

    def checked(coeffs, x, dim):
        if not x.flags.c_contiguous:
            strided.append(x.strides)
        return original(coeffs, x, dim)

    monkeypatch.setattr(dyn, "_apply_left", checked)
    profile = dyn.TransitProfile(
        omega0=2 * np.pi * 50e3, w=6e-3, v=70.0, delta_disp=2.2 * 2 * np.pi * 50e3, t_r=5e-6
    )
    cfg = HilbertConfig(n_max=5)
    kernel = dyn.TransitKernel(profile, cfg, CavityParams(), dyn.TransitOptions(8, 4))
    kernel.propagate_batched(np.ones((3, 2 * cfg.dim, 2 * cfg.dim), dtype=complex))
    assert strided == []


def test_config_keys_match_dataclass_fields():
    # each dataclass field a config sets has exactly one key, and every key
    # but the scenario, output and loss switch names one such field, so a
    # field added without a key fails here
    import dataclasses
    import cavres.scenarios as sc
    from cavres.dynamics import TransitProfile
    from cavres.fock import HilbertConfig
    from cavres.reservoir import ReservoirConfig
    from cavres.thermal import CavityParams

    classes = {
        "hilbert": HilbertConfig,
        "profile": TransitProfile,
        "cavity": CavityParams,
        "reservoir": ReservoirConfig,
        "analysis": sc.AnalysisSpec,
    }
    # ReservoirConfig holds the profile and cavity sections
    held = {"profile", "cavity"}
    fieldless = {"scenario.name", "scenario.preset", "output.dir", "reservoir.loss"}
    keys_of = {(section, f.name): [] for section, cls in classes.items()
               for f in dataclasses.fields(cls)
               if f.init and not (section == "reservoir" and f.name in held)}
    for key in sc.KEYS:
        target = sc._field(key)
        if key in fieldless:
            assert target[1] is None, key
        else:
            assert target in keys_of, f"{key} names no field: {target}"
            keys_of[target].append(key)
    assert {target: keys for target, keys in keys_of.items() if len(keys) != 1} == {}


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_presets_and_benchmark_configs_build():
    # each sits far inside the kappa t_i bound (4e-3 on the presets)
    import cavres.scenarios as sc

    configs = [sc.preset(name) for name in sc.PRESET_NAMES] + [
        sc.build_config(dict(overrides), preset_name=name)
        for name, overrides in _benchmark_workloads().TRAJECTORY.values()
    ]
    for c in configs:
        cavity = c.reservoir.cavity
        if cavity is not None:
            assert cavity.kappa * c.profile.t_i < 1e-2


def test_benchmark_trace_hooks_resolve():
    # the benchmark tracer wraps each hook at owner.__dict__[attr] for a
    # class and getattr(owner, attr) for a module; a hook that moved away
    # makes `perfbench/run.py --trace 1` fail with a KeyError
    workloads = _benchmark_workloads()

    class Recorder:
        def __init__(self):
            self.hooks = []

        def span(self, owner, attr, *args, **kwargs):
            self.hooks.append((owner, attr))

        def counter(self, owner, attr, *args, **kwargs):
            self.hooks.append((owner, attr))

    recorder = Recorder()
    workloads.install_trace(recorder)
    assert recorder.hooks
    for owner, attr in recorder.hooks:
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
        else:
            assert hasattr(owner, attr), f"{owner.__name__}.{attr}"


def test_trajectory_calls_each_traced_hook_per_sample(monkeypatch):
    # the tracer times the map, the policing and the record by wrapping these
    # names on the reservoir module, so a run that inlined one of them would
    # leave its layer untimed while the names still resolve
    import numpy as np
    import cavres.reservoir as res
    from cavres.dynamics import TransitProfile
    from cavres.fock import HilbertConfig, density, fock_state

    counts = dict.fromkeys(("sample_map", "validate_density", "mean_photon", "purity"), 0)
    for name in counts:
        def counted(*args, _name=name, _original=getattr(res, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(res, name, counted)
    profile = TransitProfile(omega0=2 * np.pi * 50e3, w=6e-3, v=300.0, delta_disp=0.0, t_r=1.7e-6)
    n = 5
    config = res.ReservoirConfig(
        profile=profile, u=0.2, cavity=None, p_at=1.0, n_samples=n, backend="analytic"
    )
    res.run_trajectory(density(fock_state(0, HilbertConfig(n_max=6))), config)
    assert counts == {"sample_map": n, "validate_density": n + 1, "mean_photon": n + 1,
                      "purity": n + 1}


def test_import_leaves_out_unneeded_modules():
    # every CLI call pays its imports, and the package needs none of these:
    # with scipy.integrate, scipy.optimize (which pulls in scipy.special) and
    # multiprocessing loaded, a cold start to a built config took 0.50 s on a
    # 2-core VM, against 0.32 s without them
    unneeded = ("scipy.integrate", "scipy.optimize", "scipy.special", "multiprocessing")
    code = (
        "import sys, cavres, cavres.cli, cavres.scenarios; "
        f"print(' '.join(m for m in {unneeded!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cavres.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.split() == []
