"""Known answers: inputs whose side of the alternative is a theorem.

A table that permutes the cylinders of one depth k, each row with either
orientation, is a signed permutation of the depth-k cells; such tables and
the reflection R generate a finite group.  Every orbit of a finite group is
finite, the Cantor measure is invariant under it, and it contains no free
subgroup: find-measure at cell depth k must certify a measure `verify`
accepts, and certify-free must never exit 0.

Thompson's group F acts on the depth-3 ternary set by order-preserving
prefix replacements, generated by x0 (the bundled G3) and
x1 = (0 -> 0, 20 -> 200, 220 -> 202, 222 -> 22).  Brin and Squier proved
that groups of piecewise linear homeomorphisms of an interval contain no
free subgroup of rank 2, so no run may certify a ping-pong pair in F, and
no ping-pong certificate whose maps are x0 and x1 may verify.  The same
holds for any two order-preserving prefix replacements: two complete
prefix codes of equal size, paired in order, orientation +1.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk.cli import main
from cantorwalk.maps import PrefixTable, from_prefix_table
from cantorwalk.serialize import map_to_obj
from cantorwalk.space import ternary_cantor

from fixtures import X0, X1, edited_certificate, finite_groups

BRIN_SQUIER = ("Thompson's F contains no free subgroup of rank 2 (Brin and Squier, "
               "Invent. Math. 79, 1985)")
FINITE_MEASURE = ("a finite group of signed cylinder permutations preserves the "
                  "Cantor measure, invariant on the depth-k cells it permutes")
FINITE_NOT_FREE = "a finite group contains no free subgroup of rank 2"


def _thompson_map(name, table):
    return map_to_obj(from_prefix_table(PrefixTable(tuple(map(tuple, table))),
                                        ternary_cantor(3), label=(name,)))


@pytest.mark.parametrize("seed", range(3))
def test_certify_free_gives_up_on_thompsons_f(tmp_path, capsys, seed):
    path = tmp_path / "thompson.json"
    path.write_text(json.dumps({
        "kind": "certify-free", "space": {"ifs": "ternary", "depth": 3},
        "generators": [{"name": "x0", "table": X0}, {"name": "x1", "table": X1}],
        "include_inverses": True, "seed": seed, "budgets": {"eps": "1/27"},
        "output": "thompson"}))
    assert main(["certify-free", str(path), "--out", str(tmp_path)]) == 2, BRIN_SQUIER
    assert not (tmp_path / "thompson_certificate.json").exists(), BRIN_SQUIER


def test_ping_pong_certificate_on_thompsons_f_is_invalid(tmp_path, capsys):
    # free_pair's regions with its maps replaced by x0 and x1
    doc = edited_certificate("free_pair", lambda d: d.update(
        a1=_thompson_map("x0", X0), a2=_thompson_map("x1", X1)))(tmp_path)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1, BRIN_SQUIER
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "INVALID (image(a1, K off A1) not inside B1)\n", ""), BRIN_SQUIER


@st.composite
def prefix_codes(draw, size):
    """A complete prefix code of `size` words over the ternary symbols, of
    length at most 3, in left-to-right order: a word is split into its two
    children size - 1 times."""
    code = [""]
    for _ in range(size - 1):
        word = draw(st.sampled_from([w for w in code if len(w) < 3]))
        code.remove(word)
        code += [word + "0", word + "2"]
    return sorted(code)


@st.composite
def thompson_tables(draw):
    """An order-preserving prefix table on the depth-3 ternary set: two
    complete prefix codes of equal size paired in order, each row +1, an
    element of Thompson's F."""
    size = draw(st.integers(2, 8))
    return [[s, d, 1] for s, d in zip(draw(prefix_codes(size)), draw(prefix_codes(size)))]


@settings(max_examples=20, deadline=None)
@given(thompson_tables(), thompson_tables(), st.integers(0, 2 ** 16))
def test_certify_free_gives_up_on_random_thompson_pairs(x, y, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "thompson.json"
        path.write_text(json.dumps({
            "kind": "certify-free", "space": {"ifs": "ternary", "depth": 3},
            "generators": [{"name": "x", "table": x}, {"name": "y", "table": y}],
            "include_inverses": True, "seed": seed, "budgets": {"eps": "1/27"},
            "output": "thompson"}))
        assert main(["certify-free", str(path), "--out", tmp]) != 0, BRIN_SQUIER
        assert not (Path(tmp) / "thompson_certificate.json").exists(), BRIN_SQUIER


def _finite_group_scenario(kind, tables, **fields) -> dict:
    return dict({"kind": kind, "space": {"ifs": "ternary", "depth": 3},
                 "generators": [{"name": f"g{i}", "table": t}
                                for i, t in enumerate(tables)],
                 "output": "finite"}, **fields)


@settings(max_examples=60, deadline=None)
@given(finite_groups())
def test_find_measure_certifies_finite_groups(group):
    k, tables = group
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "finite.json"
        path.write_text(json.dumps(_finite_group_scenario(
            "find-measure", tables, budgets={"depth": k})))
        assert main(["find-measure", str(path), "--out", tmp]) == 0, FINITE_MEASURE
        cert = Path(tmp) / "finite_certificate.json"
        assert json.loads(cert.read_text())["depth"] == k, FINITE_MEASURE
        assert main(["verify", str(cert)]) == 0, FINITE_MEASURE


@settings(max_examples=30, deadline=None)
@given(finite_groups(), st.integers(0, 2 ** 16))
def test_certify_free_gives_up_on_finite_groups(group, seed):
    _, tables = group
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "finite.json"
        path.write_text(json.dumps(_finite_group_scenario(
            "certify-free", tables, include_inverses=True, seed=seed,
            budgets={"eps": "1/27"})))
        assert main(["certify-free", str(path), "--out", tmp]) != 0, FINITE_NOT_FREE
        assert not (Path(tmp) / "finite_certificate.json").exists(), FINITE_NOT_FREE
