# Dead names in the package source, found by parsing it with `ast`:
#  - an import a module never uses;
#  - a module-level private function, class or constant (a name with one
#    leading underscore) that nothing in the package refers to besides its
#    own definition.
# A helper left behind by a refactor, or an import kept for it, fails here.
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unchained"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def _bound_names(node):
    # the names an import statement binds in its module
    for alias in node.names:
        if alias.asname is not None:
            yield alias.asname
        else:
            yield alias.name.split(".")[0]


def _used_names(tree):
    # names read anywhere in a module, with the strings of its __all__
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def _references(tree):
    # every way a module can refer to a name: reads, attribute access,
    # and imports from another module
    refs = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _unused_imports(modules):
    unused = []
    for name, tree in modules.items():
        used = _used_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: {bound}" for bound in _bound_names(node)
                           if bound not in used]
    return unused


def _unreferenced_privates(modules):
    refs = set().union(*(_references(tree) for tree in modules.values()))
    return [f"{name}: {private}" for name, tree in modules.items()
            for private in _private_definitions(tree) if private not in refs]


def test_package_source_was_found():
    assert {"continuation.py", "ngon.py", "__init__.py"} <= set(MODULES)


def test_every_import_is_used():
    unused = _unused_imports(MODULES)
    assert not unused, f"unused imports: {unused}"


def test_every_private_name_is_referenced():
    dead = _unreferenced_privates(MODULES)
    assert not dead, f"private names nothing refers to: {dead}"


def test_checks_find_planted_dead_names():
    # each check on a module with one dead name of its kind, and one live
    planted = {"m.py": ast.parse(
        "import math\nfrom os import path\n_SEP = path.sep\n\n\n"
        "def _left_over():\n    pass\n\n\ndef _used():\n    return _SEP\n"
        "\n\nx = _used()\n")}
    assert _unused_imports(planted) == ["m.py: math"]
    assert _unreferenced_privates(planted) == ["m.py: _left_over"]
