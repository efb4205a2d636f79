# Every public callable an `unchained.*` module defines is a plain function.
# The traced benchmark (perfbench/tracer.py::public_functions) wraps only
# `types.FunctionType` objects, so a public name turned into another kind of
# callable, say by `functools.cache` (an `_lru_cache_wrapper`), would drop
# out of the per-layer metrics without any error.  Cache a private core
# behind a plain public function instead, as `spectrum.vertical_spectrum`
# does.  Classes are callables of their own kind and are left out.
import ast
import importlib
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unchained"
MODULES = ["unchained"] + [f"unchained.{path.stem}"
                           for path in sorted(SRC.glob("*.py"))
                           if path.stem != "__init__"]


def _defined_names(tree):
    # names the module's own top-level statements bind (not its imports)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)}
    return names


def _non_plain_callables(module, tree):
    public = getattr(module, "__all__", None)
    if public is None:
        public = [name for name in vars(module) if not name.startswith("_")]
    found = []
    for name in sorted(set(public) & _defined_names(tree)):
        obj = getattr(module, name)
        if callable(obj) and not isinstance(obj, type) \
                and not isinstance(obj, types.FunctionType):
            found.append(f"{module.__name__}.{name}: {type(obj).__name__}")
    return found


def test_every_module_was_found():
    assert {"unchained", "unchained.spectrum", "unchained.cli"} <= set(MODULES)


def test_public_callables_are_plain_functions():
    found = []
    for name in MODULES:
        module = importlib.import_module(name)
        tree = ast.parse(Path(module.__file__).read_text())
        found += _non_plain_callables(module, tree)
    assert not found, f"public callables the tracer cannot wrap: {found}"


def test_check_finds_a_cached_public_function():
    # a module with a cached public function, a plain one, a class, a
    # cached private core and a partial; the cached one and the partial are
    # reported
    source = ("import functools\n\n\n@functools.cache\ndef cached(n):\n"
              "    return n\n\n\ndef plain(n):\n    return _core(n)\n\n\n"
              "@functools.cache\ndef _core(n):\n    return n\n\n\n"
              "class Kind:\n    pass\n\n\npartial = functools.partial(plain)\n")
    module = types.ModuleType("planted")
    exec(compile(source, "planted.py", "exec"), vars(module))
    assert _non_plain_callables(module, ast.parse(source)) == [
        "planted.cached: _lru_cache_wrapper",
        "planted.partial: partial"]
