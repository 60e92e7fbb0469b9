"""Export hygiene: no stale name in a module's ``__all__``, and no name
re-exported by the package root that its module does not list."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qtail


def test_exports_are_consistent():
    for info in pkgutil.iter_modules(qtail.__path__):
        mod = importlib.import_module(f"qtail.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"qtail.{info.name}.__all__ lists missing names {missing}"
    root = ast.parse(Path(qtail.__file__).read_text())
    for node in root.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = importlib.import_module(f"qtail.{node.module}").__all__
            unlisted = [a.name for a in node.names if a.name not in listed]
            assert not unlisted, f"qtail imports {unlisted} not in qtail.{node.module}.__all__"
