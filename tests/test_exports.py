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


def _unused_imports(path: Path, exported: set[str]) -> list[str]:
    """Names ``path`` imports and never reads, other than ``__future__`` and re-exported names.

    ``exported`` holds the names the module re-exports; its own ``__all__``
    is added to them.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = exported | set(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items())
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize(
    "path", sorted(Path(monodromy.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_no_unused_imports(path):
    # the package re-exports every name its ``from .module import`` lines
    # bring in, each checked above to be in that module's ``__all__``
    exported = {name for _, name in _package_imports()} if path.name == "__init__.py" else set()
    unused = _unused_imports(path, exported)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
