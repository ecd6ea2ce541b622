import ast
import importlib
import pkgutil
from pathlib import Path

import wnc


def _submodules():
    return [importlib.import_module(f"wnc.{info.name}")
            for info in pkgutil.iter_modules(wnc.__path__)
            if info.name != "__main__"]


def test_module_all_names_exist():
    for mod in _submodules():
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"{mod.__name__}.__all__ names missing {missing}"


def test_package_reexports_are_in_module_all():
    tree = ast.parse(Path(wnc.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"wnc.{node.module}")
        exported = getattr(mod, "__all__", ())
        for alias in node.names:
            if not alias.name.startswith("_"):
                assert alias.name in exported, (
                    f"wnc re-exports {alias.name}, which is not in "
                    f"{mod.__name__}.__all__")
