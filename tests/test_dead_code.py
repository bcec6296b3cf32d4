"""Every definition of the package is in use.

A module-level function or class, or a method, whose name starts with an
underscore (dunder names aside) must be referenced somewhere in the
package outside its own definition; a public one must be referenced
somewhere in the package or its tests outside its own definition.  A
reference inside the body of the definition (a recursive call, or a
method calling a namesake) does not count.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cantorwalk"


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node
            yield from (n for n in node.body
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _references(tree):
    """(name, line) of every name, attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _trees(d):
    return {p: ast.parse(p.read_text()) for p in sorted(d.glob("*.py"))}


def _used(node, path, refs) -> bool:
    """Whether a reference to node's name lies outside node's own lines."""
    return any(not (p == path and node.lineno <= line <= node.end_lineno)
               for p, line in refs.get(node.name, ()))


def unreferenced_names(private: bool, *dirs):
    """module:name for each private (or public) definition in the package
    that no module in dirs references outside the definition itself."""
    refs = {}
    for d in dirs:
        for path, tree in _trees(d).items():
            for name, line in _references(tree):
                refs.setdefault(name, []).append((path, line))
    return sorted(
        f"{path.name}:{node.name}"
        for path, tree in _trees(SRC).items()
        for node in _definitions(tree)
        if node.name.startswith("_") == private and not _used(node, path, refs)
        and not (node.name.startswith("__") and node.name.endswith("__")))


def test_no_unreferenced_private_names():
    assert unreferenced_names(True, SRC) == []


def test_no_unreferenced_public_names():
    assert unreferenced_names(False, SRC, TESTS) == []
