"""Every exported name resolves: ``__all__`` lists nothing that is gone."""
import importlib
import pkgutil

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
