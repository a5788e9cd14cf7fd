import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import tailsitter


def test_all_names_are_bound():
    # every exported name exists in its module, so a deleted function
    # cannot linger in __all__
    modules = [importlib.import_module(f"tailsitter.{m.name}")
               for m in pkgutil.iter_modules(tailsitter.__path__)]
    assert len(modules) >= 10
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_all_names_are_defined_in_their_module():
    # each public name has one home: a module's __all__ lists only what the
    # module itself defines (def, class or assignment), so a re-export
    # cannot come back, and the package root imports nothing
    package = Path(tailsitter.__file__).parent
    root = ast.parse((package / "__init__.py").read_text())
    assert not [n for n in ast.walk(root) if isinstance(n, (ast.Import, ast.ImportFrom))]
    for m in pkgutil.iter_modules(tailsitter.__path__):
        tree = ast.parse((package / f"{m.name}.py").read_text())
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        module = importlib.import_module(f"tailsitter.{m.name}")
        exported = set(getattr(module, "__all__", ()))
        assert exported <= defined, f"{m.name} re-exports {sorted(exported - defined)}"


def test_only_plant_names_the_plant_rate():
    # the command hold has one home: the plants' step holds each command
    # over the substeps, so no other module names the plant rate or the
    # substep count, not even in an import
    package = Path(tailsitter.__file__).parent
    hold = {"SUBSTEPS", "PLANT_RATE_HZ"}
    for m in pkgutil.iter_modules(tailsitter.__path__):
        if m.name == "plant":
            continue
        tree = ast.parse((package / f"{m.name}.py").read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                  for a in n.names}
        assert not names & hold, f"{m.name} names {sorted(names & hold)}"


def test_one_way_a_run_fails():
    # a run that leaves its envelope reports a failed check, so the CLI
    # catches configuration errors only, and the simulator's numerics error
    # stays inside the plant that raises it and the runner that records it
    package = Path(tailsitter.__file__).parent
    tree = ast.parse((package / "cli.py").read_text())
    for h in (n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)):
        assert isinstance(h.type, ast.Name) and h.type.id == "ConfigError", \
            f"cli.py:{h.lineno} catches {ast.unparse(h.type) if h.type else 'all'}"
    for m in pkgutil.iter_modules(tailsitter.__path__):
        if m.name in ("plant", "sim"):
            continue
        text = (package / f"{m.name}.py").read_text()
        assert "SimNumericsError" not in text, m.name


def test_benchmark_patch_targets_resolve(monkeypatch):
    # benchmarks/workloads.py wraps these by name for its --trace spans, so
    # a deleted or renamed target breaks tracing, not any other run
    bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    monkeypatch.syspath_prepend(str(bench_dir))
    workloads = importlib.import_module("workloads")
    targets = [(owner, attr) for _, owner, attr in workloads.LAYER_SPANS]
    assert len(targets) >= 30
    for owner, attr in targets + [(tailsitter.sysid, "minimize")]:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_package_imports_no_scipy():
    # the runtime needs numpy only; scipy is a benchmark oracle
    code = ("import sys, tailsitter.harness, tailsitter.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(tailsitter.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
