"""The package's public names and imports: each module's ``__all__``, and the
package modules each import loads.  The package root exports only
``__version__``, so every name is imported from its own module."""

import importlib
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import brokenstick

MODULES = sorted(m.name for m in pkgutil.iter_modules(brokenstick.__path__))

# The other package modules a fresh import of each module loads ("" is the root).
LOADS = {
    "": set(),
    "orderstats": set(),
    "stats": set(),
    "montecarlo": {"orderstats"},
    "racedata": {"orderstats"},
    "quadrature": {"orderstats"},
    "reference": {"orderstats"},
    "analysis": {"orderstats", "racedata", "stats"},
    "synth": {"montecarlo", "orderstats", "racedata"},
    "cli": {"analysis", "montecarlo", "orderstats", "racedata", "stats", "synth"},
}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"brokenstick.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_every_module_has_a_load_entry():
    assert sorted(LOADS) == ["", *MODULES]


def _loaded(name: str) -> set[str]:
    """The other package modules a fresh interpreter holds after importing ``name``."""
    module = ".".join(filter(None, ["brokenstick", name]))
    src = str(Path(brokenstick.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import {module}; "
        "print(*sorted(m for m in sys.modules if m.startswith('brokenstick.')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    return {m.removeprefix("brokenstick.") for m in loaded} - {name}


@pytest.fixture(scope="module")
def loaded():
    with ThreadPoolExecutor(max_workers=2) as pool:  # two interpreters at a time
        return dict(zip(LOADS, pool.map(_loaded, LOADS)))


@pytest.mark.parametrize("name", sorted(LOADS))
def test_import_loads_only_its_dependencies(loaded, name):
    assert loaded[name] == LOADS[name]
