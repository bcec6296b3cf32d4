"""Every definition of the package is in use.

A module-level function or class, or a method, whose name starts with an
underscore (dunder names aside) must be referenced somewhere in the
package besides its own definition; a public one must be referenced
somewhere in the package or its tests.
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
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _trees(d):
    return {p.name: ast.parse(p.read_text()) for p in sorted(d.glob("*.py"))}


def unreferenced_names(private: bool, *dirs):
    """module:name for each private (or public) definition in the package
    that no module in dirs references."""
    used = {name for d in dirs for tree in _trees(d).values()
            for name in _references(tree)}
    return sorted(
        f"{module}:{node.name}"
        for module, tree in _trees(SRC).items()
        for node in _definitions(tree)
        if node.name.startswith("_") == private and node.name not in used
        and not (node.name.startswith("__") and node.name.endswith("__")))


def test_no_unreferenced_private_names():
    assert unreferenced_names(True, SRC) == []


def test_no_unreferenced_public_names():
    assert unreferenced_names(False, SRC, TESTS) == []
