import importlib
import pkgutil

import modelbench


def test_every_module_imports():
    names = [m.name for m in pkgutil.walk_packages(modelbench.__path__, "modelbench.")]
    failures = []
    for name in names:
        try:
            importlib.import_module(name)
        except ImportError as exc:
            failures.append(f"{name}: {exc!r}")
    assert "modelbench.lifting.core" in names
    assert failures == []
