import importlib
import pkgutil

import pytest

import fracsmooth

_MODULES = ["fracsmooth"] + [
    f"fracsmooth.{m.name}" for m in pkgutil.iter_modules(fracsmooth.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_exists(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
