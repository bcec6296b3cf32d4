"""Every definition of the package is in use.

A module-level function or class, or a method, whose name starts with an
underscore (dunder names aside) must be referenced somewhere in the
package outside its own definition; a public one must be referenced
somewhere in the package or its tests outside its own definition.  A
reference inside the body of the definition (a recursive call, or a
method calling a namesake) does not count.

A stricter pass asks what the command line can reach, and every
definition must be reached: code that only tests call is test code, and
lives in tests/.  The pass starts from cli.main and the module-level code
of every module, and closes over the names that each reached definition
mentions.  A function or class is reached when its name is mentioned, as
a name or as an attribute; a method, or a name that an assignment in a
class body binds (a property view, say), only when an attribute of its
name is, since a bare name never reads a class attribute.  A reached class
reaches its dunder methods and names and the rest of its class-level code.

Every parameter with a default must be set by some call in the package,
by position or by keyword: a default that every run takes is a constant,
and the parameter a knob that no run turns.  A call matches each function
of its callee's name, as a mention reaches each definition of its name.
Dunder methods, called by the language, and cli.main, whose argv only
tests pass, are exempt.

Every name that a module-level import binds, in the package and in its
tests, must be read somewhere in its module.

Every field of a NamedTuple declared in the package must be read as an
attribute somewhere in the package: a field that nothing reads is carried
by every instance and shown by no run.

Every name that a module-level assignment in the package binds, dunders
aside, must be read somewhere in the package outside that assignment, as
a name or as an attribute: a constant that nothing reads steers no run.

No module of the tests imports a test module, at module level or inside a
function: what tests share lives in helper modules (tests/fixtures.py,
tests/reference.py, tests/walk_statistics.py), so each test module is
read, and its references found, in one place.
"""

import ast
import math
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


def _is_dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


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
        and not _is_dunder(node.name))


def test_no_unreferenced_private_names():
    assert unreferenced_names(True, SRC) == []


def test_no_unreferenced_public_names():
    assert unreferenced_names(False, SRC, TESTS) == []


def unused_imports(*dirs):
    """module:name for each name that a module-level import in dirs binds
    and its module never reads."""
    unused = []
    for d in dirs:
        for path, tree in _trees(d).items():
            read = {n.id for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unused += [f"{path.stem}:{name}" for node in tree.body
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       and getattr(node, "module", None) != "__future__"
                       for name in (a.asname or a.name.split(".")[0] for a in node.names)
                       if name not in read]
    return sorted(unused)


def test_no_unused_imports(tmp_path):
    (tmp_path / "m.py").write_text("import json, os.path as osp\nfrom a import b\nb(osp)\n")
    assert unused_imports(tmp_path) == ["m:json"]
    assert unused_imports(SRC, TESTS) == []


def unset_parameters(src):
    """module:function(parameter) for each parameter with a default that no
    call in src passes, by position or by keyword.  A call matches every
    function of its callee's name, as a mention does; a starred argument
    passes every position, and a double-starred one every keyword."""
    trees, calls = _trees(src), {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (math.inf if starred else len(node.args), {k.arg for k in node.keywords}))
    unset = []
    for path, tree in trees.items():
        # a method's first parameter is the object or class it is called on
        owner = {id(n): c.name + "." for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for n in c.body if not any(
                     getattr(d, "id", None) == "staticmethod" for d in getattr(n, "decorator_list", ()))}
        for fn in ast.walk(tree):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_dunder(fn.name)
                    or (path.stem, fn.name) == ("cli", "main")):
                continue
            args, bound = fn.args.posonlyargs + fn.args.args, id(fn) in owner
            first = len(args) - len(fn.args.defaults)
            params = [(a.arg, i - bound) for i, a in enumerate(args) if i >= first] + [
                (a.arg, math.inf) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
            unset += [f"{path.stem}:{owner.get(id(fn), '')}{fn.name}({arg})" for arg, i in params
                      if not any(n > i or {arg, None} & kw for n, kw in calls.get(fn.name, ()))]
    return sorted(unset)


def test_every_parameter_default_is_overridden(tmp_path):
    (tmp_path / "m.py").write_text("def f(a, b=1, *, c=2): pass\nf(0, c=3)\n")
    assert unset_parameters(tmp_path) == ["m:f(b)"]
    assert unset_parameters(SRC) == []


def _mentions(node):
    """(name, whether as an attribute) of each name that node mentions."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            out.add((n.attr, True))
        elif isinstance(n, ast.Name):
            out.add((n.id, False))
        elif isinstance(n, ast.alias):
            out.add((n.name, False))
    return out


def _class_names(n) -> list:
    """The names that the statement n of a class body binds as class
    attributes, dunders aside: a method's, or each of an assignment's."""
    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [n.name]
    return [t.id for target in getattr(n, "targets", ()) for t in ast.walk(target)
            if isinstance(t, ast.Name) and not _is_dunder(t.id)]


def _definition_keys(src):
    """({module:name or module:class.member: (name, code, class key)}, the
    mentions of module-level code outside the definitions)."""
    defs, mentioned = {}, set()
    for path, tree in _trees(src).items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                mentioned |= set().union(*map(_mentions, node.decorator_list))
            else:
                mentioned |= _mentions(node)
            if isinstance(node, ast.ClassDef):
                # the class's own code: bases and statements that bind no member
                cls = f"{path.stem}:{node.name}"
                code = node.bases + [n for n in node.body if not _class_names(n)]
                defs[cls] = (node.name, code, None)
                for n in node.body:
                    for name in _class_names(n):
                        defs[f"{cls}.{name}"] = (name, [n], cls)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{path.stem}:{node.name}"] = (node.name, [node], None)
    return defs, mentioned


def _reached(defs, mentioned, frontier):
    """The keys of defs that frontier's definitions and the mentions reach,
    closing over the mentions of each reached definition."""
    reached, mentioned = set(), set(mentioned)
    while True:
        reached |= set(frontier)
        for key in frontier:
            mentioned |= set().union(*map(_mentions, defs[key][1]))
        frontier = [key for key, (name, _, cls) in defs.items() if key not in reached and (
            (name, True) in mentioned or cls is None and (name, False) in mentioned
            or cls in reached and _is_dunder(name))]
        if not frontier:
            return reached


def unreachable_from_cli(src=SRC):
    """module:name (module:class.method for methods) of each definition in
    the modules of src that no run of cli.main reaches, by mentions."""
    defs, mentioned = _definition_keys(src)
    return sorted(defs.keys() - _reached(defs, mentioned, ["cli:main"]))


def test_every_definition_is_reached_from_the_cli(tmp_path):
    # a local name `word` calls no method word, nor reads the view w
    (tmp_path / "cli.py").write_text(
        "def main(word, w): return T(word).v\nclass T:\n    def word(self): pass\n"
        "    __slots__ = ()\n    v, w = (property(len) for _ in 'vw')\n")
    assert unreachable_from_cli(tmp_path) == ["cli:T.w", "cli:T.word"]
    assert unreachable_from_cli() == []


def _record_fields(c: ast.ClassDef) -> list:
    """The fields a class declares: the annotated names of a NamedTuple, or
    the field names of the collections.namedtuple call it is built on."""
    for b in c.bases:
        if getattr(b, "id", None) == "NamedTuple":
            return [n.target.id for n in c.body if isinstance(n, ast.AnnAssign)]
        if isinstance(b, ast.Call) and getattr(b.func, "id", None) == "namedtuple":
            return b.args[1].value.replace(",", " ").split()
    return []


def unread_fields(src=SRC):
    """Class.field for each field of a NamedTuple or a namedtuple-based class
    declared in the modules of src that no module of src reads as an
    attribute."""
    read, fields = set(), []
    for tree in _trees(src).values():
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        fields += [f"{c.name}.{f}" for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in _record_fields(c)]
    return sorted(f for f in fields if f.split(".")[1] not in read)


def test_every_named_tuple_field_is_read(tmp_path):
    (tmp_path / "m.py").write_text(
        "class R(NamedTuple):\n    a: int\n    b: int\nR(1, 2).a\nR(3, 4)._replace(b=5)\n"
        "class S(namedtuple('S', 'c, d e')):\n    pass\nS(1, 2, 3).e.c\n")
    assert unread_fields(tmp_path) == ["R.b", "S.d"]
    assert unread_fields() == []


def unread_constants(src=SRC):
    """module:name for each name, dunders aside, that a module-level
    assignment in the modules of src binds and that no module of src reads,
    as a name or as an attribute, outside that assignment."""
    reads, bound = {}, []
    for path, tree in _trees(src).items():
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                name = n.id if isinstance(n, ast.Name) else n.attr
                reads.setdefault(name, []).append((path, n.lineno))
        bound += [(path, n.id, node) for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                  for n in ast.walk(target)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                  and not _is_dunder(n.id)]
    return sorted(f"{path.stem}:{name}" for path, name, node in bound
                  if not any(p != path or not node.lineno <= line <= node.end_lineno
                             for p, line in reads.get(name, ())))


def test_every_module_constant_is_read(tmp_path):
    (tmp_path / "m.py").write_text("A, B = 1, 2\nC: tuple = (A, C)\n__all__ = ()\nf(m.B)\n")
    assert unread_constants(tmp_path) == ["m:C"]
    assert unread_constants() == []



def imported_test_modules(d=TESTS):
    """module:name for each import, at any depth, in the modules of d that
    names a test module, one whose name starts with test_."""
    return sorted(
        f"{path.stem}:{name}" for path, tree in _trees(d).items() for node in ast.walk(tree)
        for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if name.split(".")[0].startswith("test_"))


def test_no_test_module_imports_another(tmp_path):
    (tmp_path / "m.py").write_text(
        "import json, test_a as a\nfrom test_b import c\nfrom fixtures import test_d\n"
        "def f():\n    import test_e.sub\n")
    assert imported_test_modules(tmp_path) == ["m:test_a", "m:test_b", "m:test_e.sub"]
    assert imported_test_modules() == []
