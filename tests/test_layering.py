import ast
import pathlib
import sys

import mzfringe

MODULES = sorted(pathlib.Path(mzfringe.__file__).parent.glob("*.py"))


def imported_modules(nodes):
    """Module names of the imports among ``nodes``; a relative import reads '.name'."""
    names = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


def test_modules_import_only_numpy_the_standard_library_and_the_package():
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in imported_modules(tree.body):
            top = name.split(".")[0]
            assert name.startswith(".") or top == "numpy" or top in sys.stdlib_module_names, \
                f"{path.name} imports {name}"


def test_no_function_imports_at_call_time():
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert imported_modules(ast.walk(func)) == [], f"{path.name} {func.name}"


def test_tomography_imports_only_core():
    path = pathlib.Path(mzfringe.__file__).parent / "tomography.py"
    names = imported_modules(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    assert [n for n in names if n.startswith(".")] == [".core"]


# The package's layers: each module's relative imports, from the bottom up.
LAYERS = {
    "core": set(),
    "arms": {"core"},
    "tomography": {"core"},
    "interferometer": {"arms", "core"},
    "experiments": {"arms", "core", "interferometer", "tomography"},
    "cli": {"arms", "core", "experiments", "interferometer"},
    "__init__": {"arms", "core", "experiments", "interferometer", "tomography"},
}


def test_modules_import_along_the_layers():
    assert {path.stem for path in MODULES} == set(LAYERS)
    for path in MODULES:
        names = imported_modules(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        assert {n[1:] for n in names if n.startswith(".")} == LAYERS[path.stem], path.name


# Private names a module may still import from another, by (importer, source):
# none.
PRIVATE_IMPORTS = {}


def test_modules_import_no_private_names_from_each_other():
    found = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = {a.name for a in node.names if a.name.startswith("_")}
                if private:
                    found.setdefault((path.stem, node.module), set()).update(private)
    assert found == PRIVATE_IMPORTS


# The dilation oracle, by module, and the names of the code it checks. The
# oracle groups arm pairs by its own time grid, composes no Kraus table
# (compose_arms and its walk, _walk_arms), and builds its element matrices
# itself, so none of its functions may name any of these.
ORACLE = {
    "interferometer": {"_time_grid", "_stacked_ops", "_evolve", "_path_gram", "oracle_contrasts",
                       "oracle_contrast"},
}
CHECKED = {"compose_arms", "_walk_arms", "_element_kraus", "kraus_contrasts",
           "shared_env_contrasts", "ZERO_OP_TOL", "rotated_basis", "half_waveplate"}


def test_the_oracle_names_none_of_the_code_it_checks():
    # every checked name is defined in the package, so none is stale
    defined = set()
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    assert CHECKED <= defined
    found = {}
    for module, functions in ORACLE.items():
        path = pathlib.Path(mzfringe.__file__).parent / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert functions <= set(defs), module
        for name in functions:
            nodes = list(ast.walk(defs[name]))
            named = {node.id for node in nodes if isinstance(node, ast.Name)}
            named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            if named & CHECKED:
                found[name] = named & CHECKED
    assert found == {}
