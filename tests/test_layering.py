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


def test_no_module_reaches_numpy_random():
    # importing numpy.random costs every command about 10 ms; the counts and
    # the random specs draw from counter-based uniforms instead
    for path in MODULES:
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        names = imported_modules(nodes)
        names += [f"numpy.{alias.name}" for node in nodes
                  if isinstance(node, ast.ImportFrom) and node.module == "numpy"
                  for alias in node.names]
        assert "numpy.random" not in names, path.name
        reached = [ast.unparse(node) for node in nodes
                   if isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
        assert reached == [], f"{path.name} reaches {reached}"


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
# oracle groups arm pairs by its own (unit, N), composes no Kraus table
# (compose_arms and its walk, _walk_arms), and builds its element matrices
# itself, so none of its functions may name any of these.
ORACLE = {
    "interferometer": {"_frequencies", "_stacked_ops", "_transfer", "_path_gram",
                       "oracle_contrasts", "oracle_contrast"},
}
CHECKED = {"compose_arms", "_walk_arms", "_element_kraus", "kraus_contrasts",
           "shared_env_contrasts", "ZERO_OP_TOL", "rotated_basis", "half_waveplate"}


def oracle_functions() -> list:
    """The definitions of the oracle's functions; every name in ORACLE must have one."""
    found = []
    for module, functions in ORACLE.items():
        path = pathlib.Path(mzfringe.__file__).parent / f"{module}.py"
        defs = [node for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, ast.FunctionDef) and node.name in functions]
        assert {node.name for node in defs} == functions, module
        found += defs
    return found


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
    for func in oracle_functions():
        nodes = list(ast.walk(func))
        named = {node.id for node in nodes if isinstance(node, ast.Name)}
        named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        if named & CHECKED:
            found[func.name] = named & CHECKED
    assert found == {}


# numpy's matrix-product and linear-algebra names, and the functions that may
# still call BLAS or LAPACK routines, with the reason for each.
BLAS_NAMES = {"linalg", "dot", "matmul", "tensordot", "inner", "vdot"}
BLAS_ALLOWED = {
    "validate_density_matrix": "its eigvalsh only gates the input; no output carries its bits",
    "fit_fringe": "the fit's normal equations, left for its rewrite with a conditioning check",
}


def blas_calls(nodes) -> list:
    """The source of each BLAS or LAPACK call among ``nodes``: numpy's matrix
    products, np.linalg and einsum's optimize= path (which calls tensordot)
    round as the BLAS kernel does; elementwise arithmetic and plain einsum do
    not."""
    return [ast.unparse(node) for node in nodes
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
            or isinstance(node, ast.Name) and node.id in BLAS_NAMES
            or isinstance(node, ast.keyword) and node.arg == "optimize"]


def test_no_function_calls_a_blas_or_lapack_routine():
    # so that no sweep, fringe, qkd, tomography or oracle-check output, and
    # none of the oracle's, follows the BLAS kernel
    found, allowed = {}, {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name in BLAS_ALLOWED:
                allowed[func.name] = blas_calls(ast.walk(func))
                skipped |= set(ast.walk(func))
        calls = blas_calls(node for node in ast.walk(tree) if node not in skipped)
        if calls:
            found[path.name] = calls
    assert found == {}
    # each exception still calls one, so the list is not stale
    assert {name for name, calls in allowed.items() if calls} == set(BLAS_ALLOWED)
