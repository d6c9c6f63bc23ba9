"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import repval


def test_every_exported_name_resolves():
    modules = [repval] + [
        importlib.import_module(f"repval.{info.name}")
        for info in pkgutil.iter_modules(repval.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
