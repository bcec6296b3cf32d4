"""What the certificate checks can reach, and what they run.

verify.py holds every check that `cantorwalk verify` runs and imports only
rational, space and maps; serialize.py reads a document into a certificate
and hands it to its check, and imports no search.  Each module's import
closure inside the package is counted in lines, and a traced verify of a
certificate of each type runs no code of the searches or of the CLI.  A
traced `cantorwalk verify` of the written certificates, the ping-pong
certificates of the benchmark's certify-free pools and the edits of the
bundled one enters every function of verify's closure but those of
UNRUN, each kept for the reason it gives: so code that only the searches
run does not land in maps or space unseen.
"""

import ast
import sys
from pathlib import Path

from cantorwalk import serialize as ser

from fixtures import cli_verify, ping_pong_documents, ping_pong_edits, written_certificates

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorwalk"
SEARCHES = {"certify", "walk", "measure_solver"}


def package_imports(module: str) -> set:
    """The package modules that a module of the package imports, relatively
    or by their full names."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] for a in node.names
                      if a.name.startswith("cantorwalk.")}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "cantorwalk"):
            sub = node.module if node.level else node.module.partition(".")[2]
            found |= {sub} if sub else {a.name for a in node.names}
    return found


def closure(module: str) -> set:
    """The module and every package module it imports, at any remove."""
    seen, todo = set(), [module]
    while todo:
        if (m := todo.pop()) not in seen:
            seen.add(m)
            todo += package_imports(m)
    return seen


def lines(modules) -> int:
    return sum(len((SRC / f"{m}.py").read_text().splitlines()) for m in modules)


def test_package_imports_reads_every_form(tmp_path, monkeypatch):
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\nimport json, cantorwalk.walk\n"
        "from . import serialize as ser\nfrom .space import Region\n"
        "from cantorwalk.maps import image\nfrom cantorwalk import giet\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert package_imports("m") == {"walk", "serialize", "space", "maps", "giet"}


def test_verify_imports_only_rational_space_and_maps():
    assert package_imports("verify") == {"rational", "space", "maps"}
    assert closure("verify") == {"verify", "rational", "space", "maps"}


def test_serialize_imports_no_search():
    assert not package_imports("serialize") & SEARCHES
    assert not closure("serialize") & (SEARCHES | {"cli", "giet"})
    assert "serialize" not in closure("giet")


def test_the_checks_reach_few_lines():
    # 2,278 lines for the checks and 2,746 for serialize when the checks
    # lived in certify.py, beside the searches; 1,783 for serialize when it
    # read giets and wrote blow-ups; 1,343 and 1,610 when orbit closure, map
    # equality and epsilon-neighbourhoods lived in maps and space
    assert lines(closure("verify")) <= 1283
    assert lines(closure("serialize")) <= 1550


def test_a_traced_verify_runs_no_search(tmp_path):
    entered = set()

    def trace(frame, event, arg):
        name = frame.f_globals.get("__name__", "")
        if name.startswith("cantorwalk."):
            entered.add(name.partition(".")[2])

    for doc in written_certificates(tmp_path):
        old = sys.gettrace()
        sys.settrace(trace)
        try:
            verdict = ser.verify_certificate(doc)
        finally:
            sys.settrace(old)
        assert verdict, doc["type"]
    assert {"serialize", "verify", "space", "maps"} <= entered
    assert not entered & (SEARCHES | {"cli"})


# the functions of verify's closure that no traced verify enters, and why each stays
UNRUN = {
    "maps.break_pairs": "the walk's break accumulation and the benchmark's break-word "
                        "check read it",
    "maps.break_points": "the walk and the benchmark's break-word check read it",
    "maps.from_prefix_table": "the scenario reader and the benchmark's runner build maps with it",
    "maps.image": "the map algebra: the searches take region images with it",
    "rational.clip": "only a refusal message runs it",
    "rational.rat_str": "only the writers of documents run it",
    "space.Ifs.cylinder": "from_prefix_table reads it",
    "space.Region.subset_of": "the region algebra: the searches test inclusions with it",
    "space.Region.union": "the region algebra: the searches join regions with it",
    "space.ternary_cantor": "the scenario reader and the benchmark's runner build K with it",
}


def functions(module: str) -> set:
    """module.name of each module-level function and each method of a
    module-level class."""
    out = set()
    for node in ast.parse((SRC / f"{module}.py").read_text()).body:
        if isinstance(node, ast.FunctionDef):
            out.add(f"{module}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            out |= {f"{module}.{node.name}.{f.name}" for f in node.body
                    if isinstance(f, ast.FunctionDef)}
    return out


def test_a_traced_verify_enters_all_but_the_allowlist(tmp_path):
    pool = ping_pong_documents(tmp_path)
    docs = [*written_certificates(tmp_path), *pool.values(),
            *(doc for _, doc in ping_pong_edits(pool["bundled/free_pair"]))]
    entered = set()

    def trace(frame, event, arg):
        name = frame.f_globals.get("__name__", "")
        if name.startswith("cantorwalk."):
            entered.add(f"{name.partition('.')[2]}.{frame.f_code.co_qualname}")

    for doc in docs:
        old = sys.gettrace()
        sys.settrace(trace)
        try:
            cli_verify(tmp_path / "doc.json", doc)
        finally:
            sys.settrace(old)
    unrun = set().union(*map(functions, closure("verify"))) - entered
    assert sorted(unrun) == sorted(UNRUN)
