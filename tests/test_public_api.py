"""Every exported name resolves: ``__all__`` lists nothing that is gone;
one module owns the JSON file format; and no module lifts a Python scalar
function over an array."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tapgen

MODULES = sorted(m.name for m in pkgutil.iter_modules(tapgen.__path__))


def test_package_exports_resolve():
    missing = [name for name in tapgen.__all__ if not hasattr(tapgen, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    # a module without __all__ (rng) exports nothing by name
    module = importlib.import_module(f"tapgen.{name}")
    missing = [item for item in getattr(module, "__all__", ())
               if not hasattr(module, item)]
    assert missing == []


def test_one_module_owns_the_json_format():
    def imported(name):
        tree = ast.parse(Path(tapgen.__path__[0], f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module

    users = [name for name in MODULES
             if any(m.split(".")[0] == "json" for m in imported(name))]
    assert users == ["documents"]


def test_no_module_lifts_scalar_functions_over_arrays():
    # a per-entry Python call per array entry is what the array contracts
    # (DivergenceSpec's f and f' first) replaced
    lifted = [(name, node.attr) for name in MODULES
              for node in ast.walk(ast.parse(
                  Path(tapgen.__path__[0], f"{name}.py").read_text()))
              if isinstance(node, ast.Attribute)
              and node.attr in ("frompyfunc", "vectorize")]
    assert lifted == []
