import importlib
import pkgutil

import modelbench


def _module_names():
    return [m.name for m in pkgutil.walk_packages(modelbench.__path__, "modelbench.")]


def test_every_module_imports():
    names = _module_names()
    failures = []
    for name in names:
        try:
            importlib.import_module(name)
        except ImportError as exc:
            failures.append(f"{name}: {exc!r}")
    assert "modelbench.lifting.core" in names
    assert failures == []


def test_every_exported_name_resolves():
    packages = ["modelbench"] + _module_names()
    missing = []
    exported = 0
    for name in packages:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, attr):
                missing.append(f"{name}.{attr}")
    assert exported > 0
    assert missing == []
