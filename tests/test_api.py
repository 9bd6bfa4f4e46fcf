"""Public API: every exported name resolves, every public name is exported,
and the package runs without scipy."""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import smartcea


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
