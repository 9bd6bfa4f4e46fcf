"""Public API: every exported name resolves, every public name is exported,
every exported name and every module-level constant is loaded by library code
outside type annotations, one library function starts threads, the dataset
memo is the one cache kept across calls, and the package runs without
scipy."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import smartcea

# Library names that no library code loads, each with the reason it stays.
UNLOADED_NAMES = {
    "rng.PURPOSE_CALIBRATE": "reserves stream tag 4 for the calibration search in the tests",
}


def test_every_exported_name_resolves():
    modules = [smartcea] + [
        importlib.import_module(f"smartcea.{info.name}")
        for info in pkgutil.iter_modules(smartcea.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_every_public_name_is_exported():
    bound = [
        name
        for name, obj in vars(smartcea).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__.startswith("smartcea.")
    ]
    unexported = sorted(set(bound) - set(smartcea.__all__))
    assert not unexported, f"bound in smartcea but not in __all__: {unexported}"


def _loads_outside_annotations(tree: ast.AST):
    """Every ``Name`` and ``Attribute`` node loaded in ``tree``, leaving out
    type annotations: a name named only in a type hint is not run."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            skipped.add(id(node.returns))
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            skipped.add(id(node.annotation))
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skipped:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _library_loads():
    """The library's parsed modules by stem, the (module, name) a name bound
    in a module was imported from, and the set of (module, name) pairs that
    library code loads outside type annotations.

    A load counts for the module that defines the name: a bare name where
    the loading module defines it or imports it from a library module, or
    an attribute of a name bound to a library module.
    """
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(smartcea.__file__).parent.glob("*.py"))
    }
    # (module, name) -> (module, name) it was imported from.
    imported = {}
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in trees:
                        target = (alias.name, None)  # a module
                    else:
                        target = (node.module or "__init__", alias.name)
                    imported[(stem, alias.asname or alias.name)] = target

    def origin(stem, name):
        while (stem, name) in imported and name is not None:
            stem, name = imported[(stem, name)]
        return stem, name

    loaded = set()
    for stem, tree in trees.items():
        for node in _loads_outside_annotations(tree):
            if isinstance(node, ast.Name):
                loaded.add(origin(stem, node.id))
            elif isinstance(node.value, ast.Name):
                module, name = origin(stem, node.value.id)
                if name is None:
                    loaded.add(origin(module, node.attr))
    return trees, origin, loaded


def test_every_exported_name_is_loaded_by_library_code():
    # A name that only the tests read belongs with them, in tests/oracles.py.
    trees, origin, loaded = _library_loads()
    unused = sorted(
        f"{stem}.{name}"
        for stem in trees
        for name in (smartcea if stem == "__init__"
                     else importlib.import_module(f"smartcea.{stem}")).__all__
        if origin(stem, name) not in loaded
    )
    assert unused == sorted(UNLOADED_NAMES)


def test_every_module_constant_is_loaded_by_library_code():
    # The export rule above sees only __all__; a constant left behind when its
    # last reader goes is caught here, exported or not.
    trees, _, loaded = _library_loads()
    assigned = set()
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id):
                        assigned.add((stem, name.id))
    assert len(assigned) > 40  # the scan sees the library's constants
    unused = sorted(f"{stem}.{name}" for stem, name in assigned - loaded)
    assert unused == sorted(UNLOADED_NAMES)


def _calls_by_function(node: ast.AST, where: str, callee: str):
    """``where`` (or ``where.f`` inside function f) once for each call of
    ``callee`` by name or attribute in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_by_function(child, f"{where}.{child.name}", callee)
            continue
        if isinstance(child, ast.Call) and callee in (
            getattr(child.func, "id", None), getattr(child.func, "attr", None)
        ):
            yield where
        yield from _calls_by_function(child, where, callee)


def test_one_library_function_starts_threads():
    # dgp._prefetched is the one draw-ahead pipeline, and the rule that keeps
    # the shared draw buffers safe (no job starts before the caller is done
    # with the result two back) is stated there.  study's ProcessPoolExecutor
    # starts processes and is not counted.
    calls = [
        call
        for path in sorted(Path(smartcea.__file__).parent.glob("*.py"))
        for call in _calls_by_function(
            ast.parse(path.read_text(encoding="utf-8")), path.stem, "ThreadPoolExecutor"
        )
    ]
    assert calls == ["dgp._prefetched"]


_FUNCTOOLS_CACHES = {"cache", "lru_cache", "cached_property"}


def _cross_call_caches(stem: str, tree: ast.AST):
    """Where module ``stem`` calls ``id()``, uses a functools cache or sets
    the dataset memo ``_derived`` outside ``core.Dataset``."""
    owner = set()
    if stem == "core":
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "Dataset":
                owner = {id(inner) for inner in ast.walk(node)}
    for node in ast.walk(tree):
        where = f"{stem}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "id":
                yield f"{where} id()"
            elif node.func.id in ("setattr", "delattr") and any(
                isinstance(arg, ast.Constant) and arg.value == "_derived" for arg in node.args
            ):
                yield f"{where} {node.func.id}(..., '_derived')"
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in _FUNCTOOLS_CACHES:
                    yield f"{where} functools.{alias.name}"
        elif isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name) and node.value.id == "functools"
                    and node.attr in _FUNCTOOLS_CACHES):
                yield f"{where} functools.{node.attr}"
            elif (node.attr == "_derived" and not isinstance(node.ctx, ast.Load)
                    and id(node) not in owner):
                yield f"{where} sets ._derived"


def test_the_dataset_memo_is_the_one_cross_call_cache():
    # core.Dataset.derived keeps a value with the dataset it was computed
    # from, and it goes when the dataset does.  A dict keyed by id() outlives
    # its object, so a later dataset at the freed address would read the old
    # one's values; a functools cache keeps its arguments alive and hands one
    # mutable result to every caller.
    found = [
        where
        for path in sorted(Path(smartcea.__file__).parent.glob("*.py"))
        for where in _cross_call_caches(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
    probe = ast.parse(
        "import functools\nfrom functools import lru_cache\n_SEEN = {}\n"
        "def f(d):\n    _SEEN[id(d)] = d\n    d._derived = {}\n"
        "@functools.cache\ndef g():\n    pass\n"
    )
    assert len(list(_cross_call_caches("probe", probe))) == 4


def test_every_domain_exception_is_an_estimation_failure():
    # One base class lets the CLI map every domain failure to exit code 1.
    defined = [
        obj
        for info in pkgutil.iter_modules(smartcea.__path__)
        for obj in vars(importlib.import_module(f"smartcea.{info.name}")).values()
        if inspect.isclass(obj)
        and issubclass(obj, Exception)
        and obj.__module__ == f"smartcea.{info.name}"
    ]
    names = {cls.__name__ for cls in defined}
    assert {"ZeroSupport", "SeparationDetected", "EmptyFrontier"} <= names
    outside = [
        cls.__name__
        for cls in defined
        if cls.__name__ not in ("UsageError", "CliError")
        and not issubclass(cls, smartcea.EstimationFailure)
    ]
    assert not outside, f"not derived from EstimationFailure: {outside}"


# Runs in a fresh interpreter where any import of scipy fails.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import smartcea
import smartcea.cli
for argv in (
    ["simulate", "--n", "300", "--seed", "4", "--out", "trial.csv"],
    ["icer-table", "--data", "trial.csv", "--out", "icers.csv"],
    ["contrast", "--data", "trial.csv", "--i", "2", "--j", "4", "--out", "contrast.csv"],
):
    code = smartcea.cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(smartcea.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
