import importlib
import pkgutil

import tailsitter


def test_all_names_are_bound():
    # every exported name exists in its module, so a deleted function
    # cannot linger in __all__
    modules = [importlib.import_module(f"tailsitter.{m.name}")
               for m in pkgutil.iter_modules(tailsitter.__path__)]
    assert len(modules) >= 10
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
