"""The package's public names: each module's ``__all__`` and the package re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import brokenstick

MODULES = sorted(m.name for m in pkgutil.iter_modules(brokenstick.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"brokenstick.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_reexports_are_in_their_module_all():
    tree = ast.parse(Path(brokenstick.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    stale = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"brokenstick.{node.module}").__all__
    ]
    assert not stale
