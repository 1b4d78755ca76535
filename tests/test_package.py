"""Package hygiene: every module-level private function is referenced, every
public function and method has a caller in the package, the package
imports nothing outside the standard library and imports its own modules
at module top, no package module imports another's private name, and no
test module imports a name it never reads."""

import ast
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "bigalg"


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


def _references(tree):
    """Each name read, attribute taken or name imported in the tree, counted."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def _referenced_names(tree):
    """Names read, attributes taken and names imported anywhere in the tree."""
    return set(_references(tree))


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


def _public_functions(tree):
    """(qualified name, node) of each public module-level function and class
    method; dunder methods are left out."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            found += [
                ("%s.%s" % (node.name, item.name), item)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return found


def _uncalled_public_functions(trees):
    """Public functions and methods whose name nothing reads outside their own body.

    The check goes by name alone: a method whose name some other object's
    attribute also reads (``MultiPoly.to_obj`` beside ``QMatrix.to_obj``)
    counts as read, so such a method escapes it.
    """
    used = sum(map(_references, trees.values()), Counter())
    return [
        "%s:%s" % (name, qual)
        for name, tree in trees.items()
        for qual, node in _public_functions(tree)
        if used[node.name] == _references(node)[node.name]
    ]


def test_every_public_function_has_a_package_caller():
    trees = _trees()
    assert "linalg.py" in trees
    uncalled = _uncalled_public_functions(trees)
    assert not uncalled, "public functions no package code calls: %s" % uncalled


def test_an_uncalled_public_function_is_reported():
    tree = ast.parse(
        "def lonely(n):\n    return lonely(n - 1)\n\n"
        "class A:\n    def __init__(self):\n        pass\n\n"
        "    def used(self):\n        pass\n\n"
        "    def unused(self):\n        pass\n\n"
        "A().used()\n"
    )
    assert [q for q, _ in _public_functions(tree)] == ["lonely", "A.used", "A.unused"]
    assert _uncalled_public_functions({"m.py": tree}) == ["m.py:lonely", "m.py:A.unused"]


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


def _function_local_package_imports(tree):
    """'function:module' for each relative import inside a function body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                "%s:%s" % (node.name, inner.module or ".")
                for inner in ast.walk(node)
                if isinstance(inner, ast.ImportFrom) and inner.level
            ]
    return found


def test_package_modules_are_imported_at_module_top():
    local = [
        "%s:%s" % (name, found)
        for name, tree in _trees().items()
        for found in _function_local_package_imports(tree)
    ]
    assert not local, "function-local package imports: %s" % local


def test_a_function_local_package_import_is_reported():
    tree = ast.parse(
        "from . import lie\nimport os\n\n"
        "def f():\n    from .linalg import charpoly\n    import json\n    return charpoly\n\n"
        "class A:\n    def g(self):\n        from . import reps\n        return reps\n"
    )
    assert _function_local_package_imports(tree) == ["f:linalg", "g:."]


def _private_package_imports(tree):
    """'module:name' for each _-prefixed name imported from a package module."""
    return [
        "%s:%s" % (node.module or ".", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.split(".")[0] == "bigalg")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_package_module_imports_a_private_name():
    private = [
        "%s:%s" % (name, found)
        for name, tree in _trees().items()
        for found in _private_package_imports(tree)
    ]
    assert not private, "private names imported across package modules: %s" % private


def test_a_private_package_import_is_reported():
    tree = ast.parse(
        "from __future__ import annotations\nfrom os import _exit\n"
        "from .polymatrix import PolyMatrix, _sparse_int_rows\n"
        "from bigalg.linalg import _reduced, kernel\n\n"
        "def f():\n    from . import _hidden\n    return _hidden\n"
    )
    assert _private_package_imports(tree) == [
        "polymatrix:_sparse_int_rows", "bigalg.linalg:_reduced", ".:_hidden"
    ]


def _unread_imports(tree):
    """The names a module imports and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_test_modules_read_every_imported_name():
    unread = [
        "%s:%s" % (path.name, name)
        for path in sorted(TESTS.glob("*.py"))
        for name in _unread_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not unread, "imported names no test module reads: %s" % unread


def test_an_unread_import_is_reported():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom math import gcd, lcm\n\n"
        "def f():\n    from itertools import chain\n    return os.sep, gcd(2, 4)\n"
    )
    assert _unread_imports(tree) == ["js", "lcm", "chain"]
