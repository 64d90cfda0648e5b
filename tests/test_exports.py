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


def _package_module_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every ``from .module import name`` or ``from monodromy.module import name``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("monodromy."):
            module = node.module.removeprefix("monodromy.")
        else:
            continue
        out += [(module, alias.name) for alias in node.names]
    return out


# the derived-subgroup decision and the class table that names its result
# live in classical_groups, which alone reads these names
_CLASSICAL_GROUPS_PRIVATE = {
    "_CLASS_BY_IMAGE", "_det_spinor_image", "_norm_class_size", "_require_isometry", "_witness_orbit_is_full",
}


def test_module_layering():
    imports = {
        path.stem: _package_module_imports(path)
        for path in sorted(Path(monodromy.__file__).parent.glob("*.py"))
    }
    engine = {module for module, _ in imports["group_engine"]}
    assert engine <= {"errors", "ff_linalg"}, f"group_engine imports from {sorted(engine)}"
    certifier = {module for module, _ in imports["certifier"]}
    assert "families" not in certifier, "certifier imports from families"
    leaked = [
        f"{name} from {module} in {importer}"
        for importer, pairs in imports.items()
        for module, name in pairs
        if name in _CLASSICAL_GROUPS_PRIVATE
    ]
    assert not leaked, f"private names of classical_groups imported elsewhere: {leaked}"


def _builtin_raises(path: Path) -> list[str]:
    """Each ``raise ValueError`` or ``raise TypeError`` in ``path``, with its line."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
            out.append(f"{exc.id} (line {node.lineno})")
    return out


@pytest.mark.parametrize(
    "path", sorted(Path(monodromy.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_no_builtin_value_or_type_error_raised(path):
    # a rejected argument raises errors.InvalidInput, which the CLI reports
    # with exit status 2; a bare builtin error would escape it as a traceback
    raised = _builtin_raises(path)
    assert not raised, f"{path.name} raises {raised}; raise errors.InvalidInput instead"


def _src_modules() -> list[tuple[str, ast.Module]]:
    return [
        (path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(Path(monodromy.__file__).parent.glob("*.py"))
    ]


def test_only_group_engine_reaches_into_the_chain():
    # ``GeneratedGroup`` builds its stabilizer chain in its constructor, and
    # ``order``, ``contains_array`` and ``in`` are the doors to it; no other
    # module builds or reads it, and certificates reach a group only through
    # the derived-containment test
    reached = [
        f"{module}: .{node.attr} (line {node.lineno})"
        for module, tree in _src_modules()
        if module != "group_engine"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_chain"
    ]
    assert not reached, f"modules other than group_engine reach into the chain: {reached}"
    imported = [
        f"{name} in {path.stem}"
        for path in sorted(Path(monodromy.__file__).parent.glob("*.py"))
        for module, name in _package_module_imports(path)
        if module == "group_engine"
        and (name in ("_Chain", "_Level") or (path.stem == "certifier" and name == "GeneratedGroup"))
    ]
    assert not imported, f"chain classes or groups imported where they should not be: {imported}"


def _functions(tree: ast.Module):
    """(qualified name, node) for every function and method in ``tree``."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}{node.name}"
            if isinstance(node, ast.FunctionDef):
                yield name, node
            stack += [(f"{name}.", child) for child in node.body]


def _raised_messages(fn: ast.FunctionDef) -> list[str]:
    """The leading string of each ``raise InvalidInput(...)`` in ``fn``."""
    out = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            arg = node.exc.args[0]
            if isinstance(arg, ast.JoinedStr):
                arg = arg.values[0] if arg.values else arg
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                out.append(arg.value)
    return out


def test_one_generator_list_check():
    # GeneratedGroup, invariant_forms and is_irreducible share one check of
    # a generator list: non-empty, one size, one modulus, all invertible
    checkers = sorted(
        f"{module}.{name}"
        for module, tree in _src_modules()
        for name, fn in _functions(tree)
        if any(message.startswith("generators must") for message in _raised_messages(fn))
    )
    assert checkers == ["ff_linalg._check_generators"]
