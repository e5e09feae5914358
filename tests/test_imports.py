import ast
import importlib
import pathlib
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


def _unread_imports(path):
    """The names that the top-level imports of a module bind and that the
    module never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items()
                  if name not in read)


def test_every_top_level_import_is_read():
    paths = [p for p in sorted(pathlib.Path(modelbench.__path__[0]).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 15
    assert [u for p in paths for u in _unread_imports(p)] == []


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


# Defaulted parameters plus dataclass field defaults in src/modelbench.  A
# change that adds a knob raises this number in its own diff.
MAX_OPTIONS = 21


def _is_dataclass(node):
    return any((isinstance(d, ast.Name) and d.id == "dataclass")
               or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
               for d in node.decorator_list)


def _option_count(root):
    count = 0
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    return count


def test_option_count_does_not_grow():
    assert _option_count(modelbench.__path__[0]) <= MAX_OPTIONS
