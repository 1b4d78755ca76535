"""Package hygiene: every module-level private function has a caller, and
the package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bigalg"


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _private_functions(tree):
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def _referenced_names(tree):
    """Names read, attributes taken and names imported anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_function_is_referenced():
    trees = _trees()
    assert "linalg.py" in trees
    used = set().union(*map(_referenced_names, trees.values()))
    unused = [
        "%s:%s" % (name, fn)
        for name, tree in trees.items()
        for fn in _private_functions(tree)
        if fn not in used
    ]
    assert not unused, "private functions referenced nowhere in the package: %s" % unused


def test_an_unreferenced_private_function_is_reported():
    tree = ast.parse("def _lonely():\n    pass\n\ndef _used():\n    pass\n\nx = _used()\n")
    assert _private_functions(tree) == ["_lonely", "_used"]
    assert "_lonely" not in _referenced_names(tree)
    assert "_used" in _referenced_names(tree)


def _imported_modules(tree):
    """The top-level names of the absolute imports; relative ones are the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    trees = _trees()
    foreign = sorted(
        "%s:%s" % (name, module)
        for name, tree in trees.items()
        for module in _imported_modules(tree)
        if module not in sys.stdlib_module_names and module != "bigalg"
    )
    assert not foreign, "imports outside the standard library: %s" % foreign


def test_a_third_party_import_is_reported():
    tree = ast.parse("import os.path\nfrom . import lie\nfrom mpmath import mpf\nimport numpy as np\n")
    assert _imported_modules(tree) == {"os", "mpmath", "numpy"}
