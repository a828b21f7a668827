import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import mrisr
from mrisr.errors import PreconditionError
from mrisr.harness import ExperimentConfig, default_inner
from mrisr.problems import make_problem
from mrisr.rk import inner_method
from mrisr.tableau import load_builtin

SRC = sorted(Path(mrisr.__file__).parent.glob("*.py"))
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


def _raises():
    """(file, line, raised name, source) of every raise in src/, except
    the CLI's usage errors, which main() catches, and LAPACK's
    illegal-argument code, a fault in the program, not bad input."""
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            src = ast.unparse(node.exc)
            if path.name != "cli.py" and not (
                    path.name == "linalg.py" and "illegal argument" in src):
                yield path.name, node.lineno, ast.unparse(exc), src


def test_every_raise_is_one_of_the_two_errors():
    # bad input is a PreconditionError (a ValueError), which a boundary
    # raises through a value rule of mrisr.errors, and a solve inside a
    # step that cannot finish is a StepFailure; MRISRError is left for the
    # harness's reference solve, which is neither
    found = [r for r in _raises()
             if r[2] not in ("PreconditionError", "StepFailure", "MRISRError")]
    assert found == []


@pytest.mark.parametrize("lookup", [
    load_builtin, inner_method, make_problem, default_inner,
    lambda name: ExperimentConfig(kind="converge", methods=["merk2"],
                                  problem=name),
], ids=["load_builtin", "inner_method", "make_problem", "default_inner",
        "ExperimentConfig-problem"])
@pytest.mark.parametrize("name", [
    ["heun"], {}, np.array(["merk2"]), np.array(["kpr", "heun"])],
    ids=["list", "dict", "array", "array-2"])
def test_an_unhashable_name_is_a_precondition_error(lookup, name):
    # these used to escape as a bare TypeError: unhashable type, or, for
    # an array of two, numpy's 'truth value ... is ambiguous' ValueError
    with pytest.raises(PreconditionError, match=r" = (\[|\{|array)"):
        lookup(name)


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
