"""Export hygiene: no stale name in a module's ``__all__``, no name
re-exported by the package root that its module does not list, and no
tolerance knob left on the public surface."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import qtail
from qtail import _core
from qtail.cli import main
from qtail.verify import SUITES


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


def test_no_tolerance_parameter():
    """Every value is computed to the one precision REL_TOL: no callable in
    any module's ``__all__`` (exception classes aside) and no registry suite
    takes a tolerance."""
    callables = {}
    for info in pkgutil.iter_modules(qtail.__path__):
        mod = importlib.import_module(f"qtail.{info.name}")
        callables.update((f"{info.name}.{name}", getattr(mod, name))
                         for name in getattr(mod, "__all__", ()))
    callables = {name: obj for name, obj in callables.items() if callable(obj)
                 and not (isinstance(obj, type) and issubclass(obj, Exception))}
    callables.update((f"SUITES[{name!r}]", suite) for name, suite in SUITES.items())
    with_tol = [name for name, obj in callables.items()
                if "tol" in inspect.signature(obj).parameters]
    assert not with_tol, f"{with_tol} take a tol parameter"


def test_core_loops_take_no_truncation_parameter():
    """The raw loops own the truncation rule: none takes a cut-off or a term
    cap."""
    loops = [name for name, obj in vars(_core).items()
             if inspect.isfunction(obj)
             and {"cut", "max_terms"} & set(inspect.signature(obj).parameters)]
    assert not loops, f"{loops} take a truncation parameter"


def test_no_tolerance_export():
    for info in pkgutil.iter_modules(qtail.__path__):
        listed = set(getattr(importlib.import_module(f"qtail.{info.name}"), "__all__", ()))
        assert not listed & {"Tolerance", "DEFAULT_TOL"}, f"qtail.{info.name}.__all__"
    assert not hasattr(qtail, "Tolerance") and not hasattr(qtail, "DEFAULT_TOL")


def test_cli_has_no_tol_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theta", "--draws", "2", "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
