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
