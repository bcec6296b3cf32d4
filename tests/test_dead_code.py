"""Private helpers of the package are all in use.

A module-level function or class, or a method, whose name starts with an
underscore (dunder names aside) must be referenced somewhere in the
package besides its own definition.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorwalk"


def _private_definitions(tree):
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


def unreferenced_private_names(src=SRC):
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    return sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in _private_definitions(tree)
        if node.name.startswith("_") and node.name not in used
        and not (node.name.startswith("__") and node.name.endswith("__")))


def test_no_unreferenced_private_names():
    assert unreferenced_private_names() == []
