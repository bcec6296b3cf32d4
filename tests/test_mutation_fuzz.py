"""Mutation fuzz of the JSON readers.

Written certificates of all four types go through ``verify``, and the
bundled scenarios through ``parse_scenario`` alone.  A mutation deletes a
key, adds a key, swaps a value for one of another JSON type, or gives a
rational a huge denominator.  A mutated document ends in a verdict or in
one error line, never in a traceback, and an added key is always refused.
"""

import contextlib
import copy
import io
import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk import serialize as ser
from cantorwalk.cli import _load_scenario_text, main, parse_scenario

from fixtures import written_certificates

BUNDLED = ("free_pair", "klein_four", "g3", "rotation_third", "identity")
# a value of each JSON type, and containers of them
JSON_VALUES = (None, True, 7, 1.5, "x", [], {}, ["0", 1], {"k": "1/2"})
RATIONAL = re.compile(r"-?\d+(/\d+)?")


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """Where the written certificates are, and their documents, one of each type."""
    out = tmp_path_factory.mktemp("certificates")
    return out, written_certificates(out)


def _paths(node, path=()):
    """The path, as keys and indices, of node and of everything inside it."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# denominator digits of the "huge" mutation.  Past 4,300 digits no int
# conversion reads the string; below that, verify reads the rational, and a
# branch source end of 3,000 digits costs it seconds (the cylinder descent
# takes a level per digit), so the readable sizes stop at 1,000
HUGE_DIGITS = (30, 300, 1000, 5000)


def _huge(value: str, digits: int) -> str:
    """A rational near value whose denominator has the given digits; past
    4,300 digits, a string that no int conversion can read."""
    if digits > 4300:
        return "1/" + "3" * digits
    x, d = F(value), 10 ** digits + 1
    return f"{x.numerator * d // x.denominator}/{d}"


@st.composite
def mutations(draw, doc):
    """(kind, the document with one mutation) for a kind of mutation."""
    kind = draw(st.sampled_from(("delete", "add", "swap", "huge")))
    nodes = list(_paths(doc))
    targets = {
        "delete": [p for p in nodes if p and isinstance(_at(doc, p[:-1]), dict)],
        "add": [p for p in nodes if isinstance(_at(doc, p), dict)],
        "swap": nodes,
        "huge": [p for p in nodes if isinstance(_at(doc, p), str)
                 and RATIONAL.fullmatch(_at(doc, p))]}[kind]
    path = draw(st.sampled_from(targets))
    doc = copy.deepcopy(doc)
    old = _at(doc, path)
    if kind == "add":
        # no reader names a key with a "~" in it, as it names "n" or "seed"
        old["~" + draw(st.text(max_size=5))] = draw(st.sampled_from(JSON_VALUES))
        return kind, doc
    if kind == "delete":
        del _at(doc, path[:-1])[path[-1]]
        return kind, doc
    new = (draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
           if kind == "swap" else _huge(old, draw(st.sampled_from(HUGE_DIGITS))))
    if not path:
        return kind, new
    _at(doc, path[:-1])[path[-1]] = new
    return kind, doc


def _write(out, doc):
    path = out / "doc.json"
    path.write_text(json.dumps(doc))
    return path


def _verify(path) -> tuple:
    """(exit code, stdout, stderr) of cantorwalk verify on path."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_certificates_verify_or_exit_1_in_one_line(certificates, data):
    out, docs = certificates
    doc = docs[data.draw(st.integers(0, len(docs) - 1))]
    kind, mutated = data.draw(mutations(doc))
    code, stdout, stderr = _verify(_write(out, mutated))
    assert code in (0, 1)
    assert "Traceback" not in stdout + stderr and stderr.count("\n") <= 1
    if kind == "add":
        assert code == 1 and stderr.startswith("error: unknown ")


@pytest.mark.parametrize("index", range(4))
def test_every_written_key_is_read(certificates, index):
    # the keys a certificate holds are its type, its space and its row's
    # fields; without any one of them verify exits 1
    out, docs = certificates
    doc = docs[index]
    keys = ["type", "space", *(key for key, _ in ser.CERTIFICATES[doc["type"]][2])]
    assert sorted(doc) == sorted(keys)
    assert _verify(_write(out, doc))[0] == 0
    for key in keys:
        code, stdout, stderr = _verify(_write(out, {k: v for k, v in doc.items() if k != key}))
        assert code == 1 and stdout == "" and stderr.count("\n") == 1, key


SCENARIOS = [json.loads(_load_scenario_text(name)) for name in BUNDLED]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_scenarios_parse_or_raise_one_line(data):
    doc = SCENARIOS[data.draw(st.integers(0, len(SCENARIOS) - 1))]
    kind, mutated = data.draw(mutations(doc))
    try:
        parse_scenario(json.dumps(mutated))
    except ValueError as e:
        assert "\n" not in str(e)
    else:
        assert kind != "add"
