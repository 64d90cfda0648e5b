"""Every exported name resolves and has a caller, and the package re-exports only exported names."""

import ast
import copy
import functools
import importlib
import pickle
import pkgutil
from pathlib import Path

import pytest

import monodromy
from monodromy import FormSpace, Hypotheses, JordanData, Matrix, PuncturedTuple, Subspace
from monodromy.classical_groups import square_class

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(monodromy.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"monodromy.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"monodromy.{name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


# Exported names that nothing in the package calls, each with the reason it
# stays.  The CLI commands and the result types need no entry: ``__main__``
# calls ``cli.main``, and each result type is built by the function that
# returns it.
ENTRY_POINTS = {
    "group_engine.group_order": "the benchmark's convolution jobs import it (perfbench/child.py)",
    "classical_groups.spinor_norm": "documented checked wrapper: it rejects a non-isometry",
    "classical_groups.derived_containment": "documented checked wrapper: it rejects a non-isometry",
}


def _uncalled_exports() -> set[str]:
    """``module.name`` for every name in a module's ``__all__`` that no module reads.

    A name counts as read where a module other than ``__init__`` loads it
    as a variable or an attribute.
    """
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in _src_modules()
        if module != "__init__"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    }
    return {
        f"{name}.{attr}"
        for name in MODULES
        for attr in importlib.import_module(f"monodromy.{name}").__all__
        if attr not in read
    }


def test_every_exported_name_has_a_caller_or_is_an_entry_point():
    # code the pipeline does not call lives next to the tests that use it
    uncalled = _uncalled_exports()
    extra = sorted(uncalled - ENTRY_POINTS.keys())
    assert not extra, f"exported names with no caller in src/ and no entry in ENTRY_POINTS: {extra}"
    stale = sorted(ENTRY_POINTS.keys() - uncalled)
    assert not stale, f"ENTRY_POINTS names that are called in src/ or no longer exported: {stale}"


def _unread_private_helpers() -> list[str]:
    """``module.name`` for each module-level private function, class or constant no module reads.

    A name counts as read as in ``_uncalled_exports``, anywhere in ``src/``
    including its own module; dunder names are not private helpers.
    """
    trees = _src_modules()
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for _, tree in trees
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    }
    defined = []
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names if name.startswith("_") and not name.startswith("__")]
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_every_private_helper_is_read_in_src():
    # a helper whose last caller was folded away, or moved to the tests,
    # leaves the library with code nothing runs
    unread = _unread_private_helpers()
    assert not unread, f"private helpers that nothing in src/ reads: {unread}"


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
    # a ``GeneratedGroup`` is its stabilizer chain, built by its constructor;
    # ``order``, ``contains_array`` and ``in`` are the doors to it, so no
    # other module reads its levels, stop flag or bound, or imports the
    # level class, and certificates reach a group only through the
    # derived-containment test
    reached = [
        f"{module}: .{node.attr} (line {node.lineno})"
        for module, tree in _src_modules()
        if module != "group_engine"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("levels", "stopped", "bound")
    ]
    assert not reached, f"modules other than group_engine reach into the chain: {reached}"
    imported = [
        f"{name} in {path.stem}"
        for path in sorted(Path(monodromy.__file__).parent.glob("*.py"))
        for module, name in _package_module_imports(path)
        if module == "group_engine"
        and (name == "_Level" or (path.stem == "certifier" and name == "GeneratedGroup"))
    ]
    assert not imported, f"the level class or groups imported where they should not be: {imported}"


# each of these decisions is made in one module, which alone reads its name:
# the pick of the generator whose vector orbit decides derived containment,
# and the loop that grows an orbit, for chain levels and the witness walk
_DECISION_HOMES = {"_witness": "classical_groups", "_orbit": "group_engine"}


def test_each_decision_is_read_in_one_module():
    readers = {
        (module, name)
        for module, tree in _src_modules()
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.id] if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            else [node.attr] if isinstance(node, ast.Attribute)
            else []
        )
        if name in _DECISION_HOMES
    }
    assert readers == {(home, name) for name, home in _DECISION_HOMES.items()}, sorted(readers)


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


_SHEAR = Matrix([[1, 1], [0, 1]], 5)
_SYMPLECTIC = FormSpace(Matrix([[0, 1], [4, 0]], 5), "alternating")
VALUES = {
    "Matrix": _SHEAR,
    "Subspace": Subspace([[1, 2, 0], [0, 1, 1]], 3, 5),
    "Subspace-zero": Subspace([], 3, 5),
    "JordanData": JordanData([(1, 2), (3, 1)], 5),
    "FormSpace": _SYMPLECTIC,
    "Hypotheses": Hypotheses(_SYMPLECTIC, (_SHEAR, _SHEAR.T), frozenset({1}), 1),
    "PuncturedTuple": PuncturedTuple([0, 1, "a"], [_SHEAR, _SHEAR.T, _SHEAR]),
}


@pytest.mark.parametrize("name", sorted(VALUES))
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_immutable_values_copy_and_pickle(name, round_trip):
    # the immutable value types refuse attribute writes, so they rebuild
    # through their constructors rather than by restoring slots
    value = VALUES[name]
    if isinstance(value, Matrix):
        value.det()  # fills the cached determinant slot
    again = round_trip(value)
    assert type(again) is type(value)
    assert again == value


@functools.lru_cache(maxsize=None)
def _sp4_5():
    return monodromy.hyperelliptic_system(2, 5)


def _kummer_0123():
    return monodromy.kummer_tuple([0, 1, 2, 3], 5)


# (entry point, bad argument): each used to truncate the value, return a
# wrong answer, or fail with an untyped or misleading error
BAD_ARGUMENTS = {
    "middle_convolve lambda 2.7": lambda: monodromy.middle_convolve(_kummer_0123(), 2.7),
    "middle_convolve lambda '2'": lambda: monodromy.middle_convolve(_kummer_0123(), "2"),
    "predict_rank lambda 2.5": lambda: monodromy.predict_rank(
        [JordanData([(4, 1)], 5)] * 4, JordanData([(1, 1)], 5), 2.5
    ),
    "JordanData blocks (2.9, 1.7)": lambda: JordanData([(2.9, 1.7)], 5),
    "JordanData.tensor 2.5": lambda: JordanData([(2, 1)], 5).tensor(2.5),
    "Subspace row [0.5, 1]": lambda: Subspace([[0.5, 1]], 2, 5),
    "GeneratedGroup limit 1.5": lambda: monodromy.GeneratedGroup(_sp4_5().generators, limit=1.5),
    "derived_containment limit 1.5": lambda: monodromy.derived_containment(
        _sp4_5().generators, _sp4_5().space, 1.5
    ),
    "cross_validate limit -1": lambda: monodromy.cross_validate(
        Hypotheses(_sp4_5().space, _sp4_5().generators), limit=-1
    ),
    "Hypotheses r 1.5": lambda: Hypotheses(_sp4_5().space, _sp4_5().generators, r=1.5),
    "hyperelliptic_system genus 2.5": lambda: monodromy.hyperelliptic_system(2.5, 5),
    "hyperelliptic_system genus '2'": lambda: monodromy.hyperelliptic_system("2", 5),
    "PuncturedTuple matrix [[1]]": lambda: PuncturedTuple([0], [[[1]]]),
    "invariant_pairing form [[1]]": lambda: monodromy.invariant_pairing([[[1]]]),
    "dim_formula deg_m 2.5": lambda: monodromy.dim_formula(2.5, 1, 0),
    "square_class a 2.5": lambda: square_class(2.5, 5),
    "square_class modulus 4": lambda: square_class(3, 4),
    "FormSpace gram [[1]]": lambda: FormSpace([[1]], "symmetric"),
    "is_isometry g [[1]]": lambda: monodromy.is_isometry([[1]], FormSpace.symplectic(2, 5)),
    "predict_rank finite [[[1]]]": lambda: monodromy.predict_rank([[[1]]], JordanData([(1, 1)], 5), 2),
    "is_prime 7.5": lambda: monodromy.is_prime(7.5),
    "jordan_type [[1]]": lambda: monodromy.jordan_type([[1]]),
    "element_order [[1]]": lambda: monodromy.element_order([[1]]),
    "isometry_group_orders [[1]]": lambda: monodromy.isometry_group_orders([[1]]),
    "derived_containment space [[1]]": lambda: monodromy.derived_containment(_sp4_5().generators, [[1]]),
    "Hypotheses space [[1]]": lambda: Hypotheses([[1]], _sp4_5().generators),
    "certify [1]": lambda: monodromy.certify([1]),
    "cross_validate [1]": lambda: monodromy.cross_validate([1]),
    "middle_convolve tuple [[1]]": lambda: monodromy.middle_convolve([[1]], 2),
    "twist_quadratic tuple [[1]]": lambda: monodromy.twist_quadratic([[1]], [2]),
    "Matrix.identity n 2.5": lambda: Matrix.identity(2.5, 5),
    "Matrix power 1.5": lambda: Matrix.identity(2, 5) ** 1.5,
    "GeneratedGroup bound 2.5": lambda: monodromy.GeneratedGroup(_sp4_5().generators, bound=2.5),
    "GeneratedGroup bound 0": lambda: monodromy.GeneratedGroup(_sp4_5().generators, bound=0),
    "is_isometry space [[1]]": lambda: monodromy.is_isometry(Matrix.identity(2, 5), [[1]]),
    "classify_element space [[1]]": lambda: monodromy.classify_element(Matrix.identity(2, 5), [[1]]),
    "spinor_norm space [[1]]": lambda: monodromy.spinor_norm(Matrix.identity(2, 5), [[1]]),
    "Matrix.zeros rows 2.5": lambda: Matrix.zeros(2.5, 2, 5),
    "Matrix.scalar n 2.5": lambda: Matrix.scalar(1, 2.5, 5),
    "Matrix.diagonal entry 2.5": lambda: Matrix.diagonal([2.5, 1], 5),
    "Subspace ambient 2.5": lambda: Subspace([[1, 0]], 2.5, 5),
    "Subspace row of length 2 in F_5^3": lambda: Subspace([[1, 0]], 3, 5),
    "Subspace.extend 2.5": lambda: VALUES["Subspace"].extend(2.5),
    "kummer_tuple points 1": lambda: monodromy.kummer_tuple(1, 5),
    "hyperelliptic_system points 3": lambda: monodromy.hyperelliptic_system(2, 5, 3),
    "twist_family_system roots 2": lambda: monodromy.twist_family_system(2, 5),
    "FormSpace.from_gram [[1]]": lambda: FormSpace.from_gram([[1]]),
    "FormSpace.symplectic dim 2.5": lambda: FormSpace.symplectic(2.5, 5),
    "PuncturedTuple.matrix_at unknown label": lambda: VALUES["PuncturedTuple"].matrix_at(2),
    # a non-iterable where a list is expected
    "PuncturedTuple punctures 5": lambda: PuncturedTuple(5, [_SHEAR]),
    "PuncturedTuple matrices 5": lambda: PuncturedTuple([0], 5),
    "Hypotheses generators 5": lambda: Hypotheses(_sp4_5().space, 5),
    "Hypotheses s0 5": lambda: Hypotheses(_sp4_5().space, _sp4_5().generators, 5),
    "GeneratedGroup generators 5": lambda: monodromy.GeneratedGroup(5),
    "invariant_forms generators 5": lambda: monodromy.invariant_forms(5),
    "is_irreducible generators 5": lambda: monodromy.is_irreducible(5),
    "twist_quadratic points 5": lambda: monodromy.twist_quadratic(_kummer_0123(), 5),
    "JordanData blocks 5": lambda: JordanData(5, 5),
    "invariant_pairing forms 5": lambda: monodromy.invariant_pairing(5),
    # a scalar factor that is not an integer
    "Matrix * 1.5": lambda: _SHEAR * 1.5,
    "1.5 * Matrix": lambda: 1.5 * _SHEAR,
    "Matrix * 'a'": lambda: _SHEAR * "a",
    # values of the right type outside the domain
    "Hypotheses no generators": lambda: Hypotheses(_sp4_5().space, []),
    "FormSpace.from_gram neither symmetric nor alternating": lambda: FormSpace.from_gram(_SHEAR),
    "square_class a 0": lambda: square_class(0, 5),
    "PuncturedTuple label 0.5": lambda: PuncturedTuple([0.5], [_SHEAR]),
    "dim_formula deg_m -1": lambda: monodromy.dim_formula(-1, 0, 0),
    # zero-dimensional inputs: a 0 x 0 gram gave full_order=0, the others
    # raised numpy's or a builtin ValueError
    "FormSpace.from_gram 0 x 0": lambda: FormSpace.from_gram(Matrix.identity(0, 5)),
    "FormSpace 0 x 0": lambda: FormSpace(Matrix.identity(0, 5), "symmetric"),
    "isometry_group_orders 0 x 0": lambda: monodromy.isometry_group_orders(
        FormSpace.from_gram(Matrix.identity(0, 5))
    ),
    "is_irreducible 0 x 0": lambda: monodromy.is_irreducible([Matrix.identity(0, 5)]),
    "GeneratedGroup 0 x 0": lambda: monodromy.GeneratedGroup([Matrix.identity(0, 5)]),
    "invariant_forms 0 x 0": lambda: monodromy.invariant_forms([Matrix.identity(0, 5)]),
    "element_order 0 x 0": lambda: monodromy.element_order(Matrix.identity(0, 5)),
    "PuncturedTuple 0 x 0": lambda: PuncturedTuple([0, 1], [Matrix.identity(0, 5)] * 2),
    "middle_convolve rank 0": lambda: monodromy.middle_convolve(
        PuncturedTuple([0, 1], [Matrix.identity(0, 5)] * 2), 2
    ),
    # ragged rows
    "Matrix ragged rows": lambda: Matrix([[1, 2], [3]], 5),
    "Subspace ragged rows": lambda: Subspace([[1, 2], [3]], 2, 5),
    # vectors: floats were truncated (q gave 0, pair 1, contains True), and
    # a wrong length raised numpy's bare ValueError
    "FormSpace.q [2.9, 0.2]": lambda: FormSpace.symplectic(2, 5).q([2.9, 0.2]),
    "FormSpace.pair u [1.5, 0]": lambda: FormSpace.symplectic(2, 5).pair([1.5, 0], [0, 1]),
    "FormSpace.pair v [0, 1.5]": lambda: FormSpace.symplectic(2, 5).pair([1, 0], [0, 1.5]),
    "FormSpace.q vector of length 3": lambda: FormSpace.symplectic(2, 5).q([1, 0, 0]),
    "FormSpace.pair scalar": lambda: FormSpace.symplectic(2, 5).pair(1, [0, 1]),
    "FormSpace.pair stack of vectors": lambda: FormSpace.symplectic(2, 5).pair([[1, 0], [0, 1]], [0, 1]),
    "Subspace.contains [0.5, 0, 0]": lambda: Subspace([[1, 0, 0]], 3, 5).contains([0.5, 0, 0]),
    "Subspace.contains vector of length 2": lambda: Subspace([[1, 0, 0]], 3, 5).contains([1, 0]),
    "Subspace.reduce [[0, 0.5, 0]]": lambda: Subspace([[1, 0, 0]], 3, 5).reduce([[0, 0.5, 0]]),
    "Subspace.reduce rows of length 4": lambda: Subspace([[1, 0, 0]], 3, 5).reduce([[1, 0, 0, 0]]),
}


@pytest.mark.parametrize("name", sorted(BAD_ARGUMENTS))
def test_bad_arguments_raise_invalid_input(name):
    with pytest.raises(monodromy.InvalidInput):
        BAD_ARGUMENTS[name]()


def test_a_fractional_symplectic_dimension_is_not_called_odd():
    with pytest.raises(monodromy.InvalidInput, match="symplectic dimension must be an integer"):
        FormSpace.symplectic(2.5, 5)
