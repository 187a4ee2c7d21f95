"""Every name a package module imports is used in that module, so a
deletion leaves no stale import behind; so is every private
(underscore-prefixed) name it defines, and no module imports another's
private name, and every public UPPER_CASE constant is read somewhere in
``src``, ``tests`` or ``bench``; every exception class in ``errors`` is
raised somewhere in the package. The benchmark's import surface
(``bench/*.py``, read as text) resolves against the package and is
listed in the README, and so do the functions it traces."""
import ast
import importlib
import os
import subprocess
import sys

import pytest

from conftest import REPO

MODULES = sorted((REPO / "src" / "bcastopt").glob("*.py"))
BENCH_FILES = sorted((REPO / "bench").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_used(path):
    # A module-level function, class or constant whose name starts with one
    # underscore serves only its own module, so one the module never reads
    # is dead code.
    tree = ast.parse(path.read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(private - read) == []


def _public_constants():
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from (f"{path.stem}.{name.id}" for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name)
                            and name.id.isupper() and not name.id.startswith("_"))


def _read_names():
    # Every name a load or an import reads, across the package, its tests
    # and the benchmark; an assignment stores its target and reads nothing.
    read = set()
    for path in [*MODULES, *sorted((REPO / "tests").glob("*.py")), *BENCH_FILES]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return read


@pytest.mark.parametrize("constant", sorted(_public_constants()))
def test_every_public_constant_is_read(constant):
    # A public knob nothing reads is dead code; so is one that only a test
    # patches, by its name as a string.
    assert constant.split(".")[1] in _read_names()


def _error_classes():
    tree = ast.parse((REPO / "src" / "bcastopt" / "errors.py").read_text())
    return sorted(node.name for node in tree.body if isinstance(node, ast.ClassDef))


def _raised_names():
    # Every name a raise statement in the package raises, called or not.
    raised = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return raised


@pytest.mark.parametrize("error", _error_classes())
def test_every_exception_class_is_raised(error):
    # An exception class the package never raises is a failure no run can
    # meet; catching or listing it only serves removed machinery.
    assert error in _raised_names()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    # An underscore-prefixed name is private to its module; a name another
    # package module needs is public.
    tree = ast.parse(path.read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("bcastopt"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _bench_imports():
    for path in BENCH_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bcastopt"):
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, alias.name, None) for alias in node.names
                            if alias.name.startswith("bcastopt"))


def test_bench_imports_resolve():
    # Each name must also be on the README's list of the surface bench/ uses.
    imports = list(_bench_imports())
    assert {file for file, _, _ in imports} == {"child.py", "test_checks.py"}
    surface = ((REPO / "README.md").read_text().split("`bench/` uses this surface")[1]
               .split("`tests/test_bench_contract.py` guards")[0])
    missing, unlisted = [], []
    for file, module, name in imports:
        found = importlib.import_module(module)  # raises for a missing module
        if name is not None and not hasattr(found, name):
            missing.append(f"{file}: {module}.{name}")
        if name is not None and f"`{name}`" not in surface:
            unlisted.append(f"{file}: {module}.{name}")
    assert missing == []
    assert unlisted == []


def test_bench_child_patches_resolve():
    # bench/child.py imports only bcastopt.cli, then patches functions by
    # (module, name) through sys.modules; check in a fresh interpreter that
    # the import loads each patched module and that it holds the function.
    tree = ast.parse((REPO / "bench" / "child.py").read_text())
    patched = [tuple(arg.value for arg in node.args[:2]) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch"]
    assert ("scenario", "load_spec") in patched and ("scenario", "normalize") in patched
    probe = ("import sys, bcastopt.cli; print(all(callable(getattr(sys.modules.get("
             f"'bcastopt.' + m), f, None)) for m, f in {patched!r}))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         cwd=REPO, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                         check=True)
    assert out.stdout.strip() == "True"


# TRACED entries that name no package function today: `optimal_schedule`
# lives in optimizer, and `scheduled_demand_moment` is deleted. The next
# change to the benchmark removes or re-points them.
_STALE_TRACED = {("scheduler", "optimal_schedule"), ("scheduler", "scheduled_demand_moment")}


def test_bench_traced_functions_resolve():
    # bench/spans.py skips a traced function that does not exist, so a
    # renamed function would silently read zero in its layer's metrics.
    tree = ast.parse((REPO / "bench" / "spans.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    unresolved = {(module, name) for module, name, _ in traced
                  if not callable(getattr(importlib.import_module(f"bcastopt.{module}"),
                                          name, None))}
    assert unresolved <= _STALE_TRACED


def _reads_popularity(node, tainted) -> bool:
    return any(isinstance(n, ast.Name) and n.id in tainted | {"popularity"}
               or isinstance(n, ast.Attribute) and n.attr == "popularity"
               for n in ast.walk(node))


def _popularity_sorts(tree):
    # Lines of argsort calls over an expression that reads popularity: by
    # that name, or through a local name assigned from such an expression,
    # or through a module function that argsorts its argument.
    sorters = {"argsort"} | {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "argsort" for n in ast.walk(node))}
    lines = []
    for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        tainted = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and _reads_popularity(node.value, tainted):
                tainted |= {n.id for t in node.targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)}
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) in sorters
                    and _reads_popularity(node, tainted)):
                lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "demand.py"],
                         ids=lambda p: p.name)
def test_only_the_catalog_ranks_by_popularity(path):
    # FileCatalog.processing_order is the one popularity rank; a module
    # that sorts by popularity again is a second copy of the rule.
    assert _popularity_sorts(ast.parse(path.read_text())) == []
