"""Every ``repro`` module imports, and each public one declares its surface.

A module that does not import (a syntax error, a broken import), that has
no ``__all__``, or whose ``__all__`` names something it does not define,
fails here. Modules are found from the source files, so none is skipped
because nothing else imports it. ``__main__`` entry points run when
imported, so they are only compiled.
"""

from __future__ import annotations

import importlib
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
