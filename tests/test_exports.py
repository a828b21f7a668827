import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mrisr

MODULES = sorted(m.name for m in pkgutil.iter_modules(mrisr.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    # a stale __all__ entry breaks `from mrisr.<module> import *`, and a
    # missing __all__ lets it export the module's imports (np, Fraction)
    mod = importlib.import_module(f"mrisr.{module}")
    assert "__all__" in vars(mod)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
    exec(f"from mrisr.{module} import *", {})


def test_package_imports_resolve():
    tree = ast.parse(Path(mrisr.__file__).read_text())
    names = [(node.module, alias.name) for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"mrisr.{module}"), name)
        assert hasattr(mrisr, name)


def _raised_builtin_errors(path):
    """(line, source) of every raise of ValueError, KeyError or TypeError."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and \
                    exc.id in ("ValueError", "KeyError", "TypeError"):
                yield node.lineno, ast.unparse(node.exc)


def test_bad_input_is_a_precondition_error():
    # a value rule lives in mrisr.errors, and a boundary raises
    # PreconditionError (a ValueError) or UnknownMethodError (a KeyError)
    # through it. Exempt: the CLI's usage errors, which main() catches, and
    # LAPACK's illegal-argument code, a fault in the program, not bad input
    found = [(path.name, line, src)
             for path in sorted(Path(mrisr.__file__).parent.glob("*.py"))
             for line, src in _raised_builtin_errors(path)
             if path.name != "cli.py" and not (
                 path.name == "linalg.py" and "illegal argument" in src)]
    assert found == []


def test_traced_names_resolve():
    # the benchmark's --trace wraps these (module, attribute path) names of
    # mrisr by setattr; tracing.py is parsed, not imported, so a rename
    # fails here and not only when a traced benchmark runs
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    wrapped, = [ast.literal_eval(node.value)
                for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["WRAPPED"]]
    assert wrapped
    for module, attr_path, _ in wrapped:
        owner = importlib.import_module(f"mrisr.{module}")
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        assert owner is not None, (module, attr_path)
