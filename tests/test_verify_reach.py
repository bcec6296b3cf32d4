"""What the certificate checks can reach.

verify.py holds every check that `cantorwalk verify` runs and imports only
rational, space and maps; serialize.py reads a document into a certificate
and hands it to its check, and imports no search.  Each module's import
closure inside the package is counted in lines, and a traced verify of a
certificate of each type runs no code of the searches or of the CLI.
"""

import ast
import sys
from pathlib import Path

from cantorwalk import serialize as ser

from fixtures import written_certificates

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
    assert not closure("serialize") & (SEARCHES | {"cli"})


def test_the_checks_reach_few_lines():
    # 2,278 lines for the checks and 2,746 for serialize when the checks
    # lived in certify.py, beside the searches
    assert lines(closure("verify")) <= 1400
    assert lines(closure("serialize")) <= 1850


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
