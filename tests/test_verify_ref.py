"""`cantorwalk verify` against a reference checker that shares no kernel with it.

reference.verify_ping_pong_ref reads a ping-pong document with Fractions
and plain tuples: it expands K_d from the IFS, intersects pieces with K_d
by scans, and checks each inclusion through per-branch affine images of
the pieces of K_d off A_i.  An AST check pins that it reaches no name
that tests/reference.py binds from the package.  Both must give one
verdict on the ping-pong certificates that certify-free writes for the
bundled free_pair and the benchmark's cf3 and cf4 pool inputs, and on
every one-field edit of them: a region end moved by ±3^-(d+2), a flag
flipped, or a piece dropped.
"""

import ast
import builtins
from pathlib import Path

from fixtures import cli_verify, ping_pong_documents, ping_pong_edits
from reference import verify_ping_pong_ref

REFERENCE = Path(__file__).resolve().parent / "reference.py"


def _reached_names(tree, start: str) -> set:
    """The names that the module-level function start reads, and those that
    each module-level function it reads, at any remove, reads; a name that
    a function binds itself (an argument, an assignment, a loop or a
    comprehension target) is left out."""
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo, read = set(), [start], set()
    while todo:
        if (name := todo.pop()) in seen:
            continue
        seen.add(name)
        nodes = list(ast.walk(funcs[name]))
        bound = {a.arg for n in nodes if isinstance(n, ast.arguments)
                 for a in n.posonlyargs + n.args + n.kwonlyargs}
        bound |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        names = {n.id for n in nodes if isinstance(n, ast.Name)
                 and isinstance(n.ctx, ast.Load)} - bound
        read |= names
        todo += names & funcs.keys()
    return read


def _package_names(tree) -> set:
    """The names that tests/reference.py binds from the package."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "cantorwalk":
            out |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.asname or a.name.partition(".")[0] for a in node.names
                    if a.name.partition(".")[0] == "cantorwalk"}
    return out


def test_the_reference_checker_reaches_no_package_name():
    tree = ast.parse(REFERENCE.read_text())
    funcs = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    read = _reached_names(tree, "verify_ping_pong_ref")
    assert _package_names(tree) >= {"Region", "invert", "affine"}
    assert not read & _package_names(tree)
    # besides its own functions it reads only Fraction, bisect and builtins
    assert read - funcs <= {"Fraction", "bisect"} | set(dir(builtins))


def test_verify_agrees_with_the_reference_checker(tmp_path):
    documents = ping_pong_documents(tmp_path)
    # 28 of the 30 cf3 and cf4 inputs certify; two give up
    assert len(documents) == 29 and "bundled/free_pair" in documents
    path, verdicts, disagree = tmp_path / "doc.json", [], []
    for key, doc in documents.items():
        assert verify_ping_pong_ref(doc) == (True, None), key
        for what, edited in [("as written", doc), *ping_pong_edits(doc)]:
            ok, why = verify_ping_pong_ref(edited)
            code, stdout, stderr = cli_verify(path, edited)
            verdicts.append(why)
            if (code == 0) != ok:
                disagree.append(f"{key}, {what}: verify says {(stdout + stderr).strip()}, "
                                f"the reference {why}")
    assert disagree == []
    # the edits reach each kind of refusal, the inclusions' among them
    refused = " ".join(why for why in verdicts if why)
    assert all(word in refused for word in ("empty", "meets", "carries"))
