"""Every ``repro`` module imports, and each public one declares its surface.

A module that does not import (a syntax error, a broken import), that has
no ``__all__``, or whose ``__all__`` names something it does not define,
fails here. Modules are found from the source files, so none is skipped
because nothing else imports it. ``__main__`` entry points run when
imported, so they are only compiled.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

import pytest

import repro

_ROOT = Path(repro.__file__).parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


_FILES = sorted(_ROOT.rglob("*.py"))
MODULES = [_module_name(p) for p in _FILES if p.name != "__main__.py"]
ENTRY_POINTS = [p for p in _FILES if p.name == "__main__.py"]


def test_modules_are_found():
    assert {"repro", "repro.pipelines.labeling", "repro.core.routing"} <= set(MODULES)
    assert ENTRY_POINTS


@pytest.mark.parametrize("name", MODULES)
def test_module_declares_its_public_surface(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} declares no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("path", ENTRY_POINTS, ids=lambda p: _module_name(p))
def test_entry_point_compiles(path):
    compile(path.read_text(), str(path), "exec")


def _callables(module_name):
    """``(qualified name, callable)`` for every callable a module exports,
    and for every public method of the classes among them."""
    module = importlib.import_module(module_name)
    for name in module.__all__:
        obj = getattr(module, name)
        if not callable(obj):
            continue
        yield f"{module_name}.{name}", obj
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj, inspect.isfunction):
                if not attr.startswith("_"):
                    yield f"{module_name}.{name}.{attr}", member


@pytest.mark.parametrize("module_name", ["repro", "repro.pipelines", "repro.experiments"])
def test_only_cluster_dataset_takes_a_tracer(module_name):
    # The caller owns the ledger and activates it with ``with tracer:``;
    # cluster_dataset keeps its tracer= as shorthand for that one block.
    takers = []
    for qualname, obj in _callables(module_name):
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        if "tracer" in parameters and not qualname.endswith(".cluster_dataset"):
            takers.append(qualname)
    assert takers == []
