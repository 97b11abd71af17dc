import ast
import importlib
import pathlib
import pkgutil

import mzfringe


def test_exports_resolve_and_package_imports_only_exports():
    # a stale __all__ entry only shows under 'import *'; check every module's
    # entries, and that the package re-exports nothing a module leaves out
    modules = {info.name: importlib.import_module(f"mzfringe.{info.name}")
               for info in pkgutil.iter_modules(mzfringe.__path__)}
    for name, module in modules.items():
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
    tree = ast.parse(pathlib.Path(mzfringe.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        exported = modules[node.module].__all__
        assert [a.name for a in node.names if a.name not in exported] == [], node.module
