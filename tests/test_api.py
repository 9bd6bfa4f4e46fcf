"""Public API: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import smartcea


def test_every_exported_name_resolves():
    modules = [smartcea] + [
        importlib.import_module(f"smartcea.{info.name}")
        for info in pkgutil.iter_modules(smartcea.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
