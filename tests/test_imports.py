import ast
import importlib
import pathlib
import pkgutil
import re

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


# src definitions that nothing in src reads and the benchmark does not name,
# each with the reason it ships.  References that only tests use live in
# tests/oracles.py.
UNREACHED_ALLOWED = {
    "inc0": "the generating acyclic cofibration J = {inc0} of the small "
            "object argument, exported for callers of small_object_factorization",
}


def _definitions(tree):
    """The names of every function, class and method in a module, dunders
    left out."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _read_names(tree):
    """Every name the module reads, as a bare name or as an attribute."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _unreached_definitions(src, bench):
    """The definitions under `src` that no non-`__init__` module there reads
    and that no `bench/*.py` file names as a whole word."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(pathlib.Path(src).rglob("*.py"))}
    read = set().union(*(_read_names(t) for p, t in trees.items() if p.name != "__init__.py"))
    bench_text = "\n".join(p.read_text() for p in sorted(pathlib.Path(bench).glob("*.py")))
    return sorted({name for tree in trees.values() for name in _definitions(tree)
                   if name not in read
                   and not re.search(rf"\b{re.escape(name)}\b", bench_text)})


def test_every_src_definition_is_reached():
    src = pathlib.Path(modelbench.__path__[0])
    bench = src.parents[1] / "perfbench"
    assert len(list(bench.glob("*.py"))) > 2
    unreached = _unreached_definitions(src, bench)
    assert [n for n in unreached if n not in UNREACHED_ALLOWED] == []
    assert sorted(UNREACHED_ALLOWED) == unreached


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
MAX_OPTIONS = 17


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
