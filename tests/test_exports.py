"""Every exported name resolves, and the package re-exports only exported names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import monodromy

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(monodromy.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"monodromy.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"monodromy.{name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def _package_imports():
    """(module, name) for every ``from .module import name`` in ``monodromy/__init__.py``."""
    tree = ast.parse(Path(monodromy.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_imports_only_exported_names():
    imports = _package_imports()
    assert imports
    stale = [
        f"{module}.{name}"
        for module, name in imports
        if name not in importlib.import_module(f"monodromy.{module}").__all__
    ]
    assert not stale, f"monodromy/__init__.py imports unexported names {stale}"
    for _, name in imports:
        assert hasattr(monodromy, name)
