"""Scenario parsing, bundled runs, determinism and the verify subcommand."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import cantorwalk
from cantorwalk import certify, cli, serialize as ser
from cantorwalk.cli import (KINDS, ScenarioError, _budget, main, parse_scenario,
                            run_scenario, _load_scenario_text)
from cantorwalk.maps import MapError, compose, invert
from cantorwalk.serialize import map_from_obj, map_to_obj, space_from_obj
from cantorwalk.space import ternary_cantor

from fixtures import edited_certificate, fixture

BUNDLED = ("free_pair", "klein_four", "g3", "rotation_third", "identity")


def _bundled(name):
    return parse_scenario(_load_scenario_text(name))


def test_bundled_scenarios_parse():
    kinds = {name: _bundled(name).kind for name in BUNDLED}
    assert kinds == {"free_pair": "certify-free",
                     "klein_four": "find-measure",
                     "g3": "simulate",
                     "rotation_third": "giet-blowup",
                     "identity": "certify-free"}
    fp = _bundled("free_pair")
    assert list(fp.generators) == ["A1", "A2", "A1^-1", "A2^-1"]


def test_parse_rejects_bad_probabilities():
    text = json.dumps({
        "kind": "simulate", "space": {"ifs": "ternary", "depth": 3},
        "generators": [{"name": "H", "table": [["0", "2", 1], ["2", "0", 1]]},
                       {"name": "R", "table": [["", "", -1]]}],
        "probabilities": ["1/2", "1/3"]})
    with pytest.raises(ScenarioError, match="probabilities sum 5/6, not 1"):
        parse_scenario(text)


def test_parse_rejects_unknown_budget_key():
    text = json.dumps({
        "kind": "simulate", "space": {"ifs": "ternary", "depth": 3},
        "generators": [{"name": "R", "table": [["", "", -1]]}],
        "budgets": {"frobnicate": 3}})
    with pytest.raises(ScenarioError, match="unknown budget key"):
        parse_scenario(text)


def test_parse_rejects_unknown_generator_in_budgets():
    text = json.dumps({
        "kind": "simulate", "space": {"ifs": "ternary", "depth": 3},
        "generators": [{"name": "R", "table": [["", "", -1]]}],
        "budgets": {"generators": ["nope"]}})
    with pytest.raises(ScenarioError, match="unknown budget key 'generators'"):
        parse_scenario(text)


def test_parse_rejects_bad_kind_and_shallow_depth(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="kind"):
        parse_scenario(json.dumps({"kind": "dance", "space": {}}))
    text = json.dumps({
        "kind": "simulate", "space": {"ifs": "ternary", "depth": 1},
        "generators": [{"name": "G3", "table": [["0", "00", 1],
                                                ["20", "02", 1],
                                                ["22", "2", 1]]}]})
    with pytest.raises(MapError, match="depth"):
        parse_scenario(text)
    path = tmp_path / "shallow.json"
    path.write_text(text)
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 1
    assert "depth 1 too small" in capsys.readouterr().err


def test_scenario_round_trip():
    # scenario document -> Scenario holds every field of the document, built
    obj = json.loads(_load_scenario_text("g3"))
    s = parse_scenario(json.dumps(obj))
    assert (s.kind, s.space, s.seed, s.output) == (
        obj["kind"], ternary_cantor(3), obj["seed"], obj["output"])
    assert list(s.generators) == [g["name"] for g in obj["generators"]]
    assert s.probabilities == (F(2, 3), F(1, 3))
    assert s.budgets == obj["budgets"]
    assert s.giets == () and s.blowup == {}


def test_budget_layers(monkeypatch):
    # the kind's defaults, then the scenario's budgets, then --seed, --runs
    # and --depth, which main copies into the scenario; a flag left unset
    # keeps the scenario's value
    scn = parse_scenario(json.dumps(dict(
        json.loads(_load_scenario_text("free_pair")),
        budgets={"eps": "1/81", "max_len": 5, "runs": 9})))
    assert _budget(scn) == {
        "n": 40,                                   # default
        "eps": F(1, 81), "max_len": 5, "runs": 9}  # scenario
    # a depth left unset is the space's depth
    assert _budget(_bundled("g3"))["depth"] == 3
    assert _budget(_bundled("klein_four"))["depth"] == 1
    seen = []
    monkeypatch.setattr(cli, "run_scenario",
                        lambda s, out_dir, emit: seen.append((s, out_dir, emit)) or (0, ""))
    assert main(["certify-free", "free_pair", "--runs", "3", "--seed", "5"]) == 0
    assert main(["simulate", "g3", "--depth", "2", "--emit-series", "--out", "o"]) == 0
    assert main(["find-measure", "klein_four"]) == 0
    (fp, _, fp_emit), (g3, g3_out, g3_emit), (klein, _, _) = seen
    assert (fp.seed, fp.budgets, fp_emit) == (5, {"eps": F(1, 27), "runs": 3}, False)
    assert (g3.seed, g3.budgets, g3_out, g3_emit) == (0, {"n": 40, "depth": 2}, "o", True)
    assert klein.budgets == {"depth": 1, "d_max": 6}


def test_run_identity_is_undecided(tmp_path):
    code, line = run_scenario(_bundled("identity"), str(tmp_path), False)
    assert code == 2
    assert line == "undecided within budget"
    report = json.load(open(tmp_path / "identity_report.json"))
    assert report["verified"] is False and report["stage"] == "contraction"


def test_run_klein_four_measure(tmp_path):
    code, line = run_scenario(_bundled("klein_four"), str(tmp_path), False)
    assert code == 0
    assert line == "INVARIANT MEASURE (depth 1, consistent to 6)"
    cert = json.load(open(tmp_path / "klein_four_certificate.json"))
    assert cert["masses"] == ["1/2", "1/2"]


def test_run_rotation_blowup(tmp_path):
    code, line = run_scenario(_bundled("rotation_third"), str(tmp_path), False)
    assert code == 0
    assert line == "BLOWUP (3 points, exact)"
    blow = json.load(open(tmp_path / "rotation_third_blowup.json"))
    assert blow["exact"] is True
    assert len(blow["blown_points"]) == 3


def test_run_g3_simulation_with_series(tmp_path):
    code, line = run_scenario(_bundled("g3"), str(tmp_path), True)
    assert code == 0
    assert line.startswith("SIMULATED")
    assert (tmp_path / "g3_report.json").exists()
    head = open(tmp_path / "g3_series.csv").readline()
    assert head.startswith("step,diam_cell_0")


def test_series_text_is_what_csv_writer_writes(tmp_path):
    # 0.0, the least subnormal 5e-324, 1e-300, 1/3 and 1.0 as diameter
    # pairs, and a second cell's series beside them
    first = ((0, 1), (1, 2 ** 1074), (1, 10 ** 300), (1, 3), (1, 1))
    diameters = (first, tuple((n, d * 7) for n, d in first[::-1]))
    ser.write_text_atomic(str(tmp_path / "s_series.csv"), cli._diameter_series(diameters))
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["step", "diam_cell_0", "diam_cell_1"])
    for k, row in enumerate(zip(*diameters)):
        w.writerow([k] + [float(F(n, d)) for n, d in row])
    assert (tmp_path / "s_series.csv").read_bytes() == buf.getvalue().encode()
    assert buf.getvalue().splitlines()[1:3] == ["0,0.0,0.14285714285714285",
                                                "1,5e-324,0.047619047619047616"]


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d in (a, b):
        run_scenario(_bundled("klein_four"), str(d), False)
    ra = (a / "klein_four_report.json").read_bytes()
    rb = (b / "klein_four_report.json").read_bytes()
    assert ra == rb
    ca = (a / "klein_four_certificate.json").read_bytes()
    cb = (b / "klein_four_certificate.json").read_bytes()
    assert ca == cb


RECORD = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


@pytest.mark.parametrize("name, command, flags", (
    ("free_pair", "certify-free", ()),
    ("g3", "simulate", ("--emit-series",)),
    ("identity", "certify-free", ()),
    ("klein_four", "find-measure", ()),
    ("rotation_third", "giet-blowup", ())))
def test_bundled_outputs_match_the_benchmark_record(tmp_path, name, command,
                                                   flags):
    # the exit code and the 24-hex sha256 of every file but the meta file,
    # as the benchmark records them; g3's series holds the scan's diameters
    expected = json.loads(RECORD.read_text())["bundled"][f"bundled/{name}"]
    code = main([command, name, "--out", str(tmp_path), *flags])
    files = {f.name[len(name) + 1:]:
             hashlib.sha256(f.read_bytes()).hexdigest()[:24]
             for f in sorted(tmp_path.iterdir())
             if f.name != f"{name}_meta.json"}
    assert {"exit": code, "files": files} == expected


def test_main_free_pair_and_verify(tmp_path, capsys):
    code = main(["certify-free", "free_pair", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "FREE (ping-pong verified)" in out
    cert_path = str(tmp_path / "free_pair_certificate.json")
    assert main(["verify", cert_path]) == 0
    assert "VERIFIED" in capsys.readouterr().out
    # corrupt the certificate: drop region A1 down to a subset that breaks
    # the inclusion check
    obj = json.load(open(cert_path))
    obj["A1"], obj["A2"] = obj["A2"], obj["A1"]
    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w") as fh:
        json.dump(obj, fh)
    assert main(["verify", bad_path]) == 1
    assert "INVALID" in capsys.readouterr().out


# imports the CLI and runs the commands given as JSON argv lists in one
# interpreter; prints, after the import and after each command, its name,
# its exit code and whether numpy, dataclasses and inspect are loaded by then
COLD_START = """
import json, sys
from cantorwalk import cli

def loaded(step, code):
    mods = [m in sys.modules for m in ("numpy", "dataclasses", "csv", "inspect")]
    print(json.dumps([step, code, *mods]), file=sys.stderr)

loaded("import", None)
for argv in json.loads(sys.argv[1]):
    loaded(argv[0], cli.main(argv))
"""


def test_cold_start_imports_neither_numpy_nor_dataclasses(tmp_path):
    # the import and every command load neither numpy nor dataclasses, nor
    # the inspect module dataclasses imports, nor csv, which the series
    # text does without; the walks of simulate, certify-free and
    # morse-smale draw their Philox stream without numpy
    assert main(["certify-free", "free_pair", "--out", str(tmp_path)]) == 0
    ms = tmp_path / "ms.json"
    ms.write_text(json.dumps(_kind_doc("morse-smale")))
    out = str(tmp_path / "fresh")
    argvs = [["verify", str(tmp_path / "free_pair_certificate.json")],
             ["find-measure", "klein_four", "--out", out],
             ["giet-blowup", "rotation_third", "--out", out],
             ["simulate", "g3", "--emit-series", "--out", out],
             ["certify-free", "free_pair", "--out", out],
             ["morse-smale", str(ms), "--out", out]]
    src = str(Path(cantorwalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    p = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(argvs)],
                       env=env, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    steps = [json.loads(line) for line in p.stderr.splitlines()]
    assert [step[:5] for step in steps] == [
        ["import", None, False, False, False], ["verify", 0, False, False, False],
        ["find-measure", 0, False, False, False], ["giet-blowup", 0, False, False, False],
        ["simulate", 0, False, False, False], ["certify-free", 0, False, False, False],
        ["morse-smale", 0, False, False, False]]
    assert [inspect for *_, inspect in steps] == [False] * 7


@pytest.mark.xfail(strict=True, reason="ping-pong certificates carry no "
                   "generators, so verify cannot check the word labels")
def test_verify_rejects_relabelled_ping_pong_maps(tmp_path, capsys):
    # a1 and a2 are labelled with the words they are; the labels below name
    # no word over free_pair's generators
    assert main(["certify-free", "free_pair", "--out", str(tmp_path)]) == 0
    path = tmp_path / "free_pair_certificate.json"
    doc = json.loads(path.read_text())
    doc["a1"]["label"], doc["a2"]["label"] = ["nonsense"], ["also", "fake"]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1


def test_verify_rejects_a_source_ending_in_a_gap(tmp_path, capsys):
    # a1's first source [0, 1/27] widened to [0, 1/18], a point of the gap
    # (1/27, 2/27): the branch keeps its one cylinder, but its source no
    # longer ends on the limit set
    assert main(["certify-free", "free_pair", "--out", str(tmp_path)]) == 0
    path = tmp_path / "free_pair_certificate.json"
    doc = json.loads(path.read_text())
    assert doc["a1"]["branches"][0]["src"] == ["0", "1/27"]
    doc["a1"]["branches"][0]["src"] = ["0", "1/18"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err == "error: branch source [0, 1/18] does not end on the limit set\n"


def test_main_bad_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad_scenario.json"
    bad.write_text(json.dumps({
        "kind": "simulate", "space": {"ifs": "ternary", "depth": 3},
        "generators": [{"name": "H", "table": [["0", "2", 1], ["2", "0", 1]]},
                       {"name": "R", "table": [["", "", -1]]}],
        "probabilities": ["1/2", "1/3"]}))
    assert main(["simulate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "probabilities sum 5/6, not 1" in err


def test_main_unknown_address_symbol_exits_1(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(
        json.loads(_load_scenario_text("g3")),
        generators=[{"name": "X", "table": [["x", "0", 1]]}], probabilities=["1"])))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'x'" in err and "alphabet ('0', '2')" in err
    assert not any(out.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.json"]


def test_main_kind_mismatch(capsys):
    assert main(["simulate", "free_pair"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_main_missing_scenario(capsys):
    assert main(["simulate", "no_such_scenario"]) == 1
    assert "not found" in capsys.readouterr().err


# free_pair as a Morse-Smale search, which certifies at seed 3
MORSE_SMALE = dict(kind="morse-smale", seed=3, budgets={}, output="ms")


def test_morse_smale_kind(tmp_path):
    scn = parse_scenario(json.dumps(dict(
        json.loads(_load_scenario_text("free_pair")), **MORSE_SMALE)))
    code, line = run_scenario(scn, str(tmp_path), False)
    assert code == 0
    assert line.startswith("MORSE-SMALE")
    report = json.load(open(tmp_path / "ms_report.json"))
    assert report["periodic"]


# the budgets each kind reads, with their defaults, and the flags beyond
# --seed and --out that it reads; the kinds read nothing else
KIND_BUDGETS = {"simulate": {"n": 40, "eps": "1/27", "depth": None},
                "certify-free": {"n": 40, "runs": 100, "eps": "1/27", "max_len": 6},
                "find-measure": {"depth": None, "d_max": 6},
                "morse-smale": {"n": 40, "runs": 100, "eps": "1/27"},
                "giet-blowup": {}}
KIND_FLAGS = {"simulate": {"--depth", "--emit-series"}, "certify-free": {"--runs"},
              "find-measure": {"--depth"}, "morse-smale": {"--runs"}, "giet-blowup": set()}
# a value of each budget, and the argv of each flag, that keep the runs short
BUDGET_VALUES = {"n": 5, "runs": 1, "eps": "1/27", "max_len": 2, "d_max": 6, "depth": 1}
FLAG_ARGV = {"--runs": ["--runs", "1"], "--depth": ["--depth", "1"],
             "--emit-series": ["--emit-series"]}
# walk laws for the kinds that draw no walk: one weight too few for
# klein_four, and two that would fit
UNREAD_LAWS = {"probabilities=1": ["1"], "probabilities=1/4,3/4": ["1/4", "3/4"]}
# fields of other kinds: rotation_third's giets and a blow-up for the kinds
# that read generators, and free_pair's generators, inverses and a space for
# giet-blowup
UNREAD_FIELDS = {"giets": json.loads(_load_scenario_text("rotation_third"))["giets"],
                 "blowup": {"L": 5},
                 "generators": json.loads(_load_scenario_text("free_pair"))["generators"],
                 "include_inverses": True, "space": {"ifs": "ternary", "depth": 2}}


def _kind_doc(kind, **fields):
    """A scenario of the kind, with the given fields replaced: g3, free_pair,
    klein_four, rotation_third, and free_pair as a Morse-Smale search."""
    name = {"simulate": "g3", "certify-free": "free_pair", "find-measure": "klein_four",
            "morse-smale": "free_pair", "giet-blowup": "rotation_third"}[kind]
    doc = json.loads(_load_scenario_text(name))
    return {**doc, **(MORSE_SMALE if kind == "morse-smale" else {}), **fields}


def test_budget_table():
    assert {kind: row.budgets for kind, row in KINDS.items()} == KIND_BUDGETS


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_kind_table_mirrors_the_kinds():
    # one line per row of cli.KINDS, in its order: the budgets with their
    # defaults, and the flags beyond --seed and --out
    head = "| kind | budgets (default) | flags beyond `--seed` and `--out` |"
    lines = README.read_text().splitlines()
    table = lines[lines.index(head) + 2:]
    table = table[:next(i for i, line in enumerate(table) if not line.startswith("|"))]
    rows = []
    for kind, row in KINDS.items():
        budgets = [f"`{k}`" + ("" if v is None else f" ({v})") for k, v in row.budgets.items()]
        flags = [f"`--{k}`" for k in ("runs", "depth") if k in row.budgets]
        flags += [f"`{flag}`" for flag in row.flags]
        rows.append(f"| `{kind}` | {', '.join(budgets) or 'none'} | "
                    f"{', '.join(flags) or 'none'} |")
    assert table == rows


@pytest.mark.parametrize("kind, knob", [
    *((kind, key) for kind in KIND_BUDGETS for key in BUDGET_VALUES
      if key not in KIND_BUDGETS[kind]),
    *((kind, flag) for kind in KIND_FLAGS for flag in FLAG_ARGV
      if flag not in KIND_FLAGS[kind]),
    *((kind, law) for kind in ("find-measure", "giet-blowup") for law in UNREAD_LAWS),
    *((kind, field) for kind in KIND_BUDGETS if kind != "giet-blowup"
      for field in ("giets", "blowup")),
    *(("giet-blowup", field) for field in ("generators", "include_inverses", "space"))])
def test_unread_budgets_and_flags_are_refused(tmp_path, capsys, kind, knob):
    # a budget, flag, walk law or field that the kind does not read exits 1
    # with one line, rather than running as if it had been read
    flag, law, field = knob.startswith("--"), UNREAD_LAWS.get(knob), knob in UNREAD_FIELDS
    doc = (_kind_doc(kind) if flag else _kind_doc(kind, probabilities=law) if law
           else _kind_doc(kind, **{knob: UNREAD_FIELDS[knob]}) if field
           else _kind_doc(kind, budgets={knob: BUDGET_VALUES[knob]}))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    argv = FLAG_ARGV[knob] if flag else []
    assert main([kind, str(path), "--out", str(out), *argv]) == 1
    message = (f"unrecognized arguments: {' '.join(argv)}" if flag
               else f"field 'probabilities' is not read by {kind}" if law
               else f"field {knob!r} is not read by {kind}" if field
               else f"unknown budget key {knob!r} for {kind}")
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("kind", KIND_BUDGETS)
def test_read_budgets_and_flags_are_accepted(tmp_path, capsys, kind):
    # every budget of the kind's table and every flag it reads, at once; the
    # report echoes --seed
    doc = _kind_doc(kind, budgets={k: BUDGET_VALUES[k] for k in KIND_BUDGETS[kind]})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = [a for flag in sorted(KIND_FLAGS[kind]) for a in FLAG_ARGV[flag]]
    assert main([kind, str(path), "--out", str(tmp_path), "--seed", "7", *argv]) in (0, 2)
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / f"{doc['output']}_report.json").read_text())
    assert report["seed"] == 7


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["simulate"], "the following arguments are required: scenario"),
    (["verify"], "the following arguments are required: certificate"),
    (["dance", "g3"], "argument command: invalid choice: 'dance'"),
    (["certify-free", "free_pair", "--runs", "x"], "argument --runs: invalid int value: 'x'"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 2 means undecided within budget, so a usage error is bad input
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cantorwalk")


def _quote_false_flags(doc):
    for name in ("A1", "B1", "A2", "B2"):
        for piece in doc[name]["pieces"]:
            for flag in ("lo_closed", "hi_closed"):
                if piece[flag] is False:
                    piece[flag] = "false"


@pytest.mark.parametrize("doc", [
    {"type": "ping-pong"},
    [1, 2],
    {"type": "invariant-measure", "space": {"intervals": 5}},
    {"type": "invariant-measure", "space": {"intervals": [["0", "1"]]},
     "generators": [], "depth": 0, "masses": ["1"], "consistency_depth": 0},
    # a zero denominator, and flags, depths and periods of the wrong JSON
    # type: each would verify, or end in a traceback, if it were read by
    # coercion
    pytest.param(edited_certificate(
        "free_pair", lambda d: d["A1"]["pieces"][0].update(lo="1/0")), id="zero-denominator"),
    pytest.param(edited_certificate("free_pair", _quote_false_flags), id="string-flags"),
    pytest.param(edited_certificate(
        "free_pair", lambda d: d["space"].update(depth=3.9)), id="float-depth"),
    pytest.param(edited_certificate(
        "klein_four", lambda d: d.update(depth=True)), id="bool-depth"),
    pytest.param(edited_certificate(
        "klein_four", lambda d: d.update(consistency_depth=4.0)), id="float-consistency-depth"),
    *(pytest.param(edited_certificate(
        "free_pair", lambda d, v=v: d["periodic"][0].__setitem__(1, v), **MORSE_SMALE),
        id=f"{name}-period") for name, v in (("float", 1.9), ("string", "1"), ("bool", True))),
])
def test_verify_malformed_certificate_exits_1(tmp_path, capsys, doc):
    if callable(doc):
        doc = doc(tmp_path)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error: malformed certificate")
    assert captured.err.count("\n") == 1


def _set(value, *path):
    """An edit that sets the item at path, keys and indices, to value."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit, line", [
    # the intervals of an IFS space follow from the IFS at its depth
    (_set([["0", "1/2"]], "space", "intervals"), "space intervals are not the IFS's at depth 3"),
    (_set("nonsense", "space", "intervals"), "space intervals are not the IFS's at depth 3"),
    (_set(1, "extra"), "unknown certificate key 'extra'"),
    (_set(1, "a1", "branches", 0, "extra"), "unknown branch key 'extra'"),
    (_set(1, "A1", "pieces", 0, "extra"), "unknown piece key 'extra'"),
    (_set(1, "space", "ifs", "extra"), "unknown ifs key 'extra'"),
], ids=["intervals-changed", "intervals-nonsense", "top-level", "a1-branch", "A1-piece",
        "space-ifs"])
def test_verify_refuses_what_it_does_not_read(tmp_path, capsys, edit, line):
    # each edit names a key that no check reads, or changes one that follows
    # from others, so the certificate would verify as it stands
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(edited_certificate("free_pair", edit)(tmp_path)))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_verify_accepts_an_ifs_space_without_intervals(tmp_path, capsys):
    # the intervals are derived from the IFS and claim nothing, so they may
    # be left out
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(edited_certificate(
        "free_pair", lambda d: d["space"].pop("intervals"))(tmp_path)))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.endswith("VERIFIED\n")


def test_a_message_cuts_a_long_value_short(tmp_path, capsys):
    # a piece end of 5,002 characters, whose denominator is too long to read
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(edited_certificate(
        "free_pair", _set("1/" + "3" * 5000, "A1", "pieces", 0, "lo"))(tmp_path)))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: malformed certificate")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200


def test_a_huge_exponent_is_refused_at_once(tmp_path, capsys):
    # A1's first end as "1e-10000000": Fraction would build 10**10000000,
    # seconds of work, and the certificate would still verify.  An exponent
    # past the digit limit of int() is refused as that many digits would be
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(edited_certificate(
        "free_pair", _set("1e-10000000", "A1", "pieces", 0, "lo"))(tmp_path)))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == 1
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr() == ("", "error: malformed certificate (RationalError: "
                                       "not an exact rational: '1e-10000000')\n")


def test_a_source_end_is_cut_short_in_its_message(tmp_path, capsys):
    # a1's first source end, 1/27, set to a value of 3,002 characters that
    # reads as a rational: the map check repeats it in its message
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(edited_certificate(
        "free_pair", _set("1/" + "3" * 3000, "a1", "branches", 0, "src", 1))(tmp_path)))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: branch source [0, 1/333")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200


def _append(value, *path):
    """An edit that appends value to the list at path, keys and indices."""
    def edit(doc):
        for key in path:
            doc = doc[key]
        doc.append(value)
    return edit


@pytest.mark.parametrize("changes, edit, line", [
    ({}, _append("junk", "a1", "branches", 0, "src"),
     "branch src: ['0', '1/27', 'junk'] is not a list of 2 values"),
    ({}, _set(["0"], "a1", "branches", 0, "src"), "branch src: ['0'] is not a list of 2 values"),
    (MORSE_SMALE, _append("junk", "periodic", 0), "periodic entry: "),
    (MORSE_SMALE, _set(["1/4", 1], "periodic", 0), "periodic entry: ['1/4', 1] is not"),
], ids=["src-three", "src-one", "periodic-four", "periodic-two"])
def test_verify_names_a_list_of_the_wrong_length(tmp_path, capsys, changes, edit, line):
    # a branch source holds two rationals and a periodic entry three values;
    # any other length is refused with one line that names the field
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(edited_certificate("free_pair", edit, **changes)(tmp_path)))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {line}") and err.count("\n") == 1
    assert err.endswith(f" is not a list of {3 if 'periodic' in line else 2} values\n")


def _edited(name, edit):
    """The bundled scenario's document with the edit made to it."""
    doc = json.loads(_load_scenario_text(name))
    edit(doc)
    return doc


@pytest.mark.parametrize("doc", [
    {"kind": "simulate", "space": {"ifs": "ternary", "depth": 3}},
    {"kind": "simulate", "space": {"ifs": "ternary", "depth": 3},
     "generators": [{"name": "A", "table": 5}]},
    [{"kind": "simulate"}],
    # fields read when the scenario runs: giets, blowup and budget values
    {"kind": "giet-blowup", "space": {"ifs": "ternary", "depth": 3},
     "giets": [5]},
    dict(json.loads(_load_scenario_text("rotation_third")), blowup={"L": None}),
    dict(json.loads(_load_scenario_text("g3")), budgets={"n": "x"}),
    # a probabilities object that leaves out a generator
    dict(json.loads(_load_scenario_text("g3")), probabilities={"G3": "1"}),
    # an output stem that is a path out of --out
    dict(json.loads(_load_scenario_text("g3")), output="../escaped"),
    # a zero denominator
    dict(json.loads(_load_scenario_text("free_pair")), budgets={"eps": "1/0"}),
    # an IFS symbol of two characters, whose addresses could not be read back
    {"kind": "simulate", "space": {"ifs": {"ratios": ["1/3", "1/3"], "offsets": ["0", "2/3"],
                                           "symbols": ["L", "RR"]}, "depth": 2},
     "generators": [{"name": "I", "branches": [{"src": ["0", "1"], "slope": "1",
                                                "offset": "0"}]}]},
    # horizon, run and word-length budgets below 1, which would leave every
    # search empty and read as "undecided within budget"
    *(dict(json.loads(_load_scenario_text("free_pair")), budgets={key: v})
      for key, v in (("n", 0), ("n", -3), ("runs", 0), ("runs", -1), ("max_len", 0))),
    *(dict(json.loads(_load_scenario_text("free_pair")), **dict(MORSE_SMALE, budgets={key: v}))
      for key, v in (("n", 0), ("n", -1), ("runs", 0), ("runs", -2))),
    # a bool for a rational and a string for a flag, which would read as 1
    # and as true
    dict(json.loads(_load_scenario_text("free_pair")), budgets={"eps": True}),
    dict(json.loads(_load_scenario_text("free_pair")), include_inverses="no"),
    # an exponent past the digit limit of int(), whose power of ten Fraction
    # would build
    dict(json.loads(_load_scenario_text("free_pair")), budgets={"eps": "1e-10000000"}),
    # a list of another length, and a string read as the list of its
    # characters: a giet interval of two ends, a table row of three entries,
    # the probabilities of the one generator
    _edited("rotation_third", _set("01", "giets", 0, "interval")),
    _edited("rotation_third", _append("junk", "giets", 0, "interval")),
    _edited("g3", _append("junk", "generators", 0, "table", 0)),
    dict(json.loads(_load_scenario_text("identity")), probabilities="1"),
])
def test_malformed_scenario_exits_1(tmp_path, capsys, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    command = doc["kind"] if isinstance(doc, dict) else "simulate"
    assert main([command, str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.json"]
    assert not any(out.iterdir())


def _simulate(**fields):
    """A simulate scenario of the letter A1 on the ternary set at depth 3,
    with the given fields replaced."""
    return dict({"kind": "simulate", "space": {"ifs": "ternary", "depth": 3},
                 "generators": [A1]}, **fields)


def _blowup(*giets, **fields):
    return dict({"kind": "giet-blowup", "space": {}, "giets": list(giets)}, **fields)


def _giet(interval, *branches):
    return {"interval": interval, "branches": [
        {"src": [lo, hi], "slope": s, "offset": o} for lo, hi, s, o in branches]}


def _ifs(ratios, offsets, symbols=("0", "2")):
    return {"ifs": {"ratios": ratios, "offsets": offsets, "symbols": list(symbols)},
            "depth": 1}


A1 = json.loads(_load_scenario_text("free_pair"))["generators"][0]
R = {"name": "R", "table": [["", "", -1]]}
ROTATION = json.loads(_load_scenario_text("rotation_third"))["giets"][0]


@pytest.mark.parametrize("doc, message", [
    (_simulate(space=3), "field 'space': missing or not an object"),
    (_simulate(space={"ifs": "dyadic"}), "unknown space shorthand 'dyadic'"),
    (_simulate(generators=[A1, A1]), "duplicate generator name 'A1'"),
    (_simulate(generators=[A1, dict(A1, name="A1^-1")], include_inverses=True),
     "duplicate generator names ['A1^-1']"),
    (_blowup(), "giet-blowup needs at least one giet"),
    (_blowup(_giet(["1", "1"], ("1", "1", "1", "0"))), "empty interval"),
    (_blowup(_giet(["0", "1"], ("0", "1", "-1", "1"))), "slopes must be positive"),
    (_blowup(_giet(["0", "1"], ("1/2", "1/2", "1", "0"), ("0", "1", "1", "0"))),
     "degenerate branch source"),
    (_blowup(ROTATION, blowup={"L": -1}), "negative word length bound"),
    (_blowup(ROTATION, _giet(["0", "2"], ("0", "2", "1", "0"))),
     "generators live on different intervals"),
    (_simulate(space=_ifs(["1/3"], ["0", "2/3"])), "IFS component lists must have equal length"),
    (_simulate(space=_ifs(["1/3"], ["0"], ["0"])), "IFS needs at least two maps"),
    (_simulate(space=_ifs(["3/2", "1/3"], ["0", "2/3"])), "IFS ratio 3/2 not in (0,1)"),
    (_simulate(space=_ifs(["1/3", "1/3"], ["0", "2/3"], ["0", "0"])),
     "IFS symbols must be distinct"),
    (_simulate(space=_ifs(["1/3", "1/3"], ["2/3", "0"])), "degenerate IFS hull"),
    (_simulate(space=_ifs(["2/3", "2/3"], ["0", "1/3"])),
     "IFS images must be disjoint, left to right"),
    (_simulate(space=_ifs(["1/4", "1/3"], ["0", "2/3"]), generators=[R]),
     "orientation-reversing branch on an asymmetric IFS"),
    (_simulate(space={"intervals": [["0", "1"]]}), "prefix tables need an IFS-structured set"),
    # the sum is 1, but there are two weights for one generator
    (_simulate(probabilities=["1/2", "1/2"]), "names, generators and probabilities must align"),
    (_simulate(include_inverses=True, probabilities=["3/2", "-1/2"]),
     "probabilities must be positive (total support)"),
    # a misspelt key would otherwise run with the defaults it meant to change
    (_simulate(budget={"n": 80}), "unknown scenario key 'budget'"),
    (_blowup(ROTATION, blowup={"l": 5}), "unknown blowup key 'l'"),
    # a list of pairs would be read as budgets, a string or a list refused
    # with a message that names no field
    (_simulate(budgets=[["n", 40]]), "field 'budgets': [['n', 40]] is not an object"),
    (_simulate(budgets="nn"), "field 'budgets': 'nn' is not an object"),
    (_blowup(ROTATION, blowup=[]), "field 'blowup': [] is not an object"),
])
def test_outside_input_check_names_its_fault(tmp_path, capsys, doc, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main([doc["kind"], str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not any(out.iterdir())


KINDS_TUPLE = "('simulate', 'certify-free', 'find-measure', 'morse-smale', 'giet-blowup')"


@pytest.mark.parametrize("command, doc, message", [
    ("simulate", _simulate(kind="dance"), f"field 'kind': 'dance' not one of {KINDS_TUPLE}"),
    ("simulate", _simulate(generators=[]), "field 'generators': missing or empty"),
    ("simulate", {"kind": "simulate", "space": {"ifs": "ternary", "depth": 3}},
     "field 'generators': missing or empty"),
    ("simulate", _simulate(include_inverses=True, probabilities={"A1": "1"}),
     "probabilities must name every generator once: ['A1^-1'] unmatched"),
    ("simulate", _simulate(include_inverses=True, probabilities=["1/2", "1/3"]),
     "probabilities sum 5/6, not 1"),
    ("simulate", _simulate(output="../escaped"),
     "field 'output': '../escaped' is not a file name"),
    ("giet-blowup", _blowup(ROTATION, output="a/b"), "field 'output': 'a/b' is not a file name"),
    ("simulate", _simulate(generators=[{"name": "A", "table": 5}]),
     "malformed scenario (TypeError: 'int' object is not iterable)"),
    ("simulate", [{"kind": "simulate"}],
     "malformed scenario (AttributeError: 'list' object has no attribute 'keys')"),
    ("simulate", _simulate(space={}), "malformed scenario (KeyError: 'intervals')"),
    *(("certify-free", dict(json.loads(_load_scenario_text("free_pair")), budgets={key: v}),
       f"budget {key!r}: {v} is below 1") for key, v in (("n", 0), ("runs", -1), ("max_len", 0))),
    ("morse-smale", _kind_doc("morse-smale", budgets={"runs": 0}), "budget 'runs': 0 is below 1"),
    ("simulate", json.loads(_load_scenario_text("free_pair")),
     "scenario kind 'certify-free' does not match command 'simulate'"),
    # giet-blowup reads no space: a space that is no object is refused first,
    # an empty one passes, so the generators are named, and a space with keys
    # is refused after the fields of the generator kinds
    ("giet-blowup", _blowup(ROTATION, space=3, generators=[]),
     "field 'space': missing or not an object"),
    ("giet-blowup", _blowup(ROTATION, generators=[]),
     "field 'generators' is not read by giet-blowup"),
    ("giet-blowup", _blowup(ROTATION, space={"ifs": "ternary"}, probabilities=["1"]),
     "field 'probabilities' is not read by giet-blowup"),
    ("giet-blowup", _blowup(ROTATION, space={"ifs": "ternary"}, blowup=[]),
     "field 'space' is not read by giet-blowup"),
    ("simulate", _simulate(space=3, giets=[]), "field 'space': missing or not an object"),
    ("simulate", _simulate(blowup={}), "field 'blowup' is not read by simulate"),
    ("giet-blowup", _blowup(ROTATION, blowup=[], budgets=[]),
     "field 'budgets': [] is not an object"),
    ("giet-blowup", _blowup(5, blowup=[]), "field 'blowup': [] is not an object"),
    ("giet-blowup", _blowup(ROTATION, budgets={"n": 3}), "unknown budget key 'n' for giet-blowup"),
    ("giet-blowup", _blowup(ROTATION, blowup={"L": "2"}), "blowup 'L': '2' is not an integer"),
    ("giet-blowup", _blowup(ROTATION, blowup={"rho": "2"}), "weight ratio must be in (0, 1)"),
])
def test_every_scenario_refusal_names_its_fault(tmp_path, capsys, command, doc, message):
    # the exact line of each refusal that the reader, the budgets and main
    # make, where the first fault found is the one named
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["simulate"], "the following arguments are required: scenario"),
    (["verify"], "the following arguments are required: certificate"),
    (["dance", "g3"], "argument command: invalid choice: 'dance' (choose from "
                      f"{KINDS_TUPLE[1:-1]}, 'verify')"),
    (["certify-free", "free_pair", "--runs", "x"], "argument --runs: invalid int value: 'x'"),
    (["simulate", "g3", "--depth", "x"], "argument --depth: invalid int value: 'x'"),
    (["simulate", "g3", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["simulate", "g3", "--out"], "argument --out: expected one argument"),
    (["giet-blowup", "rotation_third", "--depth", "1"], "unrecognized arguments: --depth 1"),
    (["verify", "a", "b"], "unrecognized arguments: b"),
    (["simulate", "no_such_scenario"], "scenario 'no_such_scenario' not found on disk or bundled"),
])
def test_command_line_errors_name_their_fault(capsys, argv, message):
    # the exact line of each usage error, and of a scenario name that names
    # no file
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("doc, line", [
    (dict(json.loads(_load_scenario_text("free_pair")), generators=[
        dict(A1, extra=1), json.loads(_load_scenario_text("free_pair"))["generators"][1]]),
     "unknown generator key 'extra'"),
    (dict(json.loads(_load_scenario_text("free_pair")),
          space={"ifs": "ternary", "depth": 3, "extra": 1}), "unknown space key 'extra'"),
    (_blowup(dict(ROTATION, extra=1)), "unknown giet key 'extra'"),
    (_blowup(dict(ROTATION, branches=[dict(ROTATION["branches"][0], extra=1),
                                      ROTATION["branches"][1]])), "unknown branch key 'extra'"),
], ids=["generator", "ternary-space", "giet", "giet-branch"])
def test_scenario_refuses_a_key_it_does_not_read(tmp_path, capsys, doc, line):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main([doc["kind"], str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert not any(out.iterdir())


def test_giet_blowup_needs_no_space(tmp_path, capsys):
    # giet-blowup reads no space: without one it writes the bundled run's bytes
    doc = json.loads(_load_scenario_text("rotation_third"))
    del doc["space"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    bundled, spaceless = tmp_path / "bundled", tmp_path / "spaceless"
    assert main(["giet-blowup", "rotation_third", "--out", str(bundled)]) == 0
    assert main(["giet-blowup", str(path), "--out", str(spaceless)]) == 0
    assert capsys.readouterr().err == ""
    for name in ("rotation_third_report.json", "rotation_third_blowup.json"):
        assert (spaceless / name).read_bytes() == (bundled / name).read_bytes()


# the giet of slopes 1/2 and 2 beside a rotation: at L = 1 the truncated
# orbit leaves each induced map (beside the rotation by 2/5) or g0 alone
# (beside the half turn) with two branches that disagree at a shared point
SLOPES_HALF_AND_TWO = _giet(["0", "1"], ("0", "2/3", "1/2", "0"), ("2/3", "1", "2", "-1"))


@pytest.mark.parametrize("rotation, written", [
    (_giet(["0", "1"], ("0", "3/5", "1", "2/5"), ("3/5", "1", "1", "-3/5")), []),
    (_giet(["0", "1"], ("0", "1/2", "1", "1/2"), ("1/2", "1", "1", "-1/2")), ["g1"])],
    ids=["rotation-2/5", "half-turn"])
def test_blowup_writes_only_maps_that_read_back(tmp_path, rotation, written):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_blowup(SLOPES_HALF_AND_TWO, rotation, blowup={"L": 1})))
    assert main(["giet-blowup", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "scenario_blowup.json").read_text())
    space = space_from_obj(doc["space"])
    assert [map_from_obj(space, m).label for m in doc["maps"]] == [(g,) for g in written]
    left_out = [i for i in range(2) if f"g{i}" not in written]
    assert [d.split(":")[0] for d in doc["defects"]] == [f"generator {i}" for i in left_out]
    assert doc["exact"] is False


@pytest.mark.parametrize("command", ["verify", "certify-free"])
def test_deeply_nested_json_exits_1(tmp_path, capsys, command):
    # json.dumps cannot build this document, and json.load gives up on it
    # with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, str(path)] + (["--out", str(out)] if command != "verify" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error: malformed " + (
        "certificate" if command == "verify" else "scenario"))
    assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json", "out"]
    assert not any(out.iterdir())


INTEGER_FIELDS = {
    "depth": ("'space.depth'", lambda doc, v: doc["space"].update(depth=v)),
    "seed": ("'seed'", lambda doc, v: doc.update(seed=v)),
    "orientation": ("'A1' orientation",
                    lambda doc, v: doc["generators"][0]["table"][1].__setitem__(2, v)),
}


@pytest.mark.parametrize("key, value", [(k, v) for k in INTEGER_FIELDS
                                        for v in (1.9, 1.0, True, "1")])
def test_scenario_integers_are_not_truncated(tmp_path, capsys, key, value):
    # the depth, the seed and a table row's orientation must be ints, as a
    # budget must: a float, a bool or a string would otherwise be read as
    # another value and run
    field, edit = INTEGER_FIELDS[key]
    doc = json.loads(_load_scenario_text("free_pair"))
    edit(doc, value)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["certify-free", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error: ") and field in captured.err
    assert "is not an integer" in captured.err
    assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.json"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("output", ["../x", "/tmp/x", "a/b", "", ".", ".."])
def test_parse_rejects_output_paths(output):
    text = json.dumps(dict(json.loads(_load_scenario_text("g3")), output=output))
    with pytest.raises(ScenarioError, match="not a file name"):
        parse_scenario(text)


def test_parse_rejects_deep_space():
    text = json.dumps(dict(json.loads(_load_scenario_text("g3")),
                           space={"ifs": "ternary", "depth": 17}))
    with pytest.raises(ValueError, match="more than 65536 intervals"):
        parse_scenario(text)


def test_verify_rejects_deep_certificate_space(tmp_path, capsys):
    run_scenario(_bundled("klein_four"), str(tmp_path), False)
    path = tmp_path / "klein_four_certificate.json"
    doc = json.loads(path.read_text())
    doc["space"]["depth"] = 17
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: depth 17 gives more than 65536 intervals\n"


def test_certificate_with_long_ifs_symbols_exits_1(tmp_path, capsys):
    # a decomposition address of such a set could not be read back
    run_scenario(_bundled("free_pair"), str(tmp_path), False)
    path = tmp_path / "free_pair_certificate.json"
    doc = json.loads(path.read_text())
    doc["space"]["ifs"]["symbols"] = ["0", "22"]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: IFS symbols") and err.count("\n") == 1


def test_verify_rejects_duplicate_generator_labels(tmp_path, capsys):
    # H and the identity, both labelled X: the masses (1, 0) are invariant
    # under the identity only, so checking one generator per label would
    # accept the document
    run_scenario(_bundled("klein_four"), str(tmp_path), False)
    path = tmp_path / "klein_four_certificate.json"
    doc = json.loads(path.read_text())
    h = next(g for g in doc["generators"] if g["label"] == ["H"])
    ident = {"branches": [{"src": ["0", "1"], "slope": "1", "offset": "0"}]}
    doc["generators"] = [dict(h, label=["X"]), dict(ident, label=["X"])]
    doc["masses"] = ["1", "0"]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: duplicate generator label 'X'\n"
    doc["generators"][1]["label"] = ["Y"]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_verify_accepts_deep_image_cylinders(tmp_path, capsys):
    # at walk seed 6 the certified a2 maps cylinder 0 onto a cylinder of
    # depth 22, far deeper than the depth-3 space
    scn = parse_scenario(_load_scenario_text("free_pair"))
    code, _ = run_scenario(scn._replace(seed=6), str(tmp_path), False)
    assert code == 0
    cert = tmp_path / "free_pair_certificate.json"
    slopes = [F(b["slope"]) for b in json.loads(cert.read_text())["a2"]["branches"]]
    assert F(1, 3 ** 21) in slopes
    assert main(["verify", str(cert)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


# S and V of tests/test_lookups.py as scenario generators on SPANNING; S
# carries the gap (1, 2) over [16/5, 19/5] as given, and is stored cut there
SPANNING_SPACE = {"intervals": [["0", "1"], ["2", "3"], ["16/5", "19/5"], ["4", "5"]]}
SPANNING_GENERATORS = [
    {"name": "S", "branches": [{"src": ["0", "3"], "slope": "1", "offset": "2"},
                               {"src": ["16/5", "19/5"], "slope": "1", "offset": "0"},
                               {"src": ["4", "5"], "slope": "1", "offset": "-4"}]},
    {"name": "V", "branches": [{"src": ["0", "3"], "slope": "1", "offset": "0"},
                               {"src": ["16/5", "19/5"], "slope": "5/3", "offset": "-4/3"},
                               {"src": ["4", "5"], "slope": "3/5", "offset": "4/5"}]}]


@pytest.mark.parametrize("kind, inverses, code", [
    ("certify-free", False, 2), ("certify-free", True, 2),
    ("simulate", False, 0), ("simulate", True, 0),
    ("morse-smale", True, 2), ("find-measure", False, 0), ("find-measure", True, 0)])
def test_spanning_scenarios_run(tmp_path, capsys, kind, inverses, code):
    # valid maps whose branches span gaps of K: the inverse of S is total,
    # so no run stops on a point outside every branch source
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": kind, "space": SPANNING_SPACE,
                                "generators": SPANNING_GENERATORS,
                                "include_inverses": inverses, "output": "spanning"}))
    assert main([kind, str(path), "--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err and captured.err == ""
    if kind == "find-measure":
        cert = tmp_path / "spanning_certificate.json"
        assert json.loads(cert.read_text())["masses"] == ["1/4"] * 4
        assert main(["verify", str(cert)]) == 0
        assert "VERIFIED" in capsys.readouterr().out


def test_one_point_interval_exits_1(tmp_path, capsys):
    # no branch meets [2, 2] in more than a point, so no map acts on this set
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "kind": "simulate", "space": {"intervals": [["0", "1"], ["2", "2"]]},
        "generators": [{"name": "X", "branches": [
            {"src": ["0", "2"], "slope": "1", "offset": "0"}]}]}))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err == "error: space interval [2, 2] is a single point\n"
    assert not any(out.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.json"]


def test_find_measure_accepts_a_deep_d_max_it_never_builds(tmp_path, capsys):
    # 17 levels of the ternary set would give 2**17 cells, past the bound,
    # but the Klein generators align at depth 1, so no deeper depth is built
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(json.loads(_load_scenario_text("klein_four")),
                                    budgets={"depth": 1, "d_max": 17})))
    assert main(["find-measure", str(path), "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "INVARIANT MEASURE (depth 1, consistent to 17)\n"
    assert captured.err == ""
    assert main(["verify", str(tmp_path / "klein_four_certificate.json")]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_find_measure_refuses_a_deep_d_max_before_solving(tmp_path, capsys, monkeypatch):
    # generators that align at no depth: the search reaches depth 17, whose
    # 2**17 cells are past the bound, and refuses it before any system is
    # solved
    def refuse(*args):
        raise AssertionError("a system was solved")

    monkeypatch.setattr(certify, "_cells_compatible", lambda *args: False)
    monkeypatch.setattr(certify, "solve_feasibility", refuse)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(json.loads(_load_scenario_text("klein_four")),
                                    budgets={"depth": 1, "d_max": 17})))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["find-measure", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: depth 17 gives more than 65536 intervals\n"
    assert not any(out.iterdir())


def test_find_measure_refuses_a_d_max_below_the_cell_depth(tmp_path, capsys):
    # the budget is at fault, not the generators' alignment
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(json.loads(_load_scenario_text("klein_four")),
                                    budgets={"depth": 5, "d_max": 3})))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["find-measure", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget 'd_max': 3 is below the cell depth 5\n"
    assert not any(out.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.json"]


def test_find_measure_that_aligns_at_no_depth_is_undecided(tmp_path, capsys):
    # H and R conjugated by A1^2 have branch sources down to depth-9
    # cylinders, so no cell depth from 3 to the d_max budget 8 is aligned:
    # the budget ran out, which is exit 2 with a report and no certificate
    K = ternary_cantor(3)
    a = compose(fixture("A1", K), fixture("A1", K))
    gens = [{"name": name, "branches": map_to_obj(compose(a, compose(fixture(name, K),
                                                                     invert(a))))["branches"]}
            for name in ("H", "R")]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "find-measure", "space": {"ifs": "ternary", "depth": 3},
                                "generators": gens, "seed": 0, "output": "fm",
                                "budgets": {"depth": 3, "d_max": 8}}))
    assert main(["find-measure", str(path), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "undecided: generators not cell-aligned at any depth <= 8\n"
    assert captured.err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fm_meta.json", "fm_report.json", "scenario.json"]
    assert json.loads((tmp_path / "fm_report.json").read_text()) == {
        "kind": "find-measure", "seed": 0, "budget": "d_max", "d_max": 8}


def _open_piece(lo, hi):
    return {"lo": lo, "hi": hi, "lo_closed": False, "hi_closed": False}


def test_find_measure_with_inexpressible_equations_is_undecided(tmp_path, capsys):
    # G3 alone on the depth-3 cells: its cells align, and the system is
    # feasible, but 4 equations need cells finer than depth 3
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "kind": "find-measure", "space": {"ifs": "ternary", "depth": 3},
        "generators": [{"name": "G3", "table": [["0", "00", 1], ["20", "02", 1],
                                                ["22", "2", 1]]}],
        "output": "fm"}))
    assert main(["find-measure", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == (
        "undecided: 4 invariance equations not expressible at depth 3\n", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fm_meta.json", "fm_report.json", "scenario.json"]
    assert json.loads((tmp_path / "fm_report.json").read_text()) == {
        "depth": 3, "kind": "find-measure", "seed": 0, "skipped": 4}


def test_probabilities_by_name_give_the_list_report(tmp_path):
    # an object naming every generator reads as the list in generator order
    weights = ["1/8", "3/8", "1/8", "3/8"]
    base = dict(json.loads(_load_scenario_text("free_pair")), kind="simulate",
                seed=4, budgets={"n": 20})
    names = ["A1", "A2", "A1^-1", "A2^-1"]
    reports = []
    for name, probs in (("list", weights), ("named", dict(zip(names[::-1], weights[::-1])))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(base, probabilities=probs, output=name)))
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 0
        reports.append((tmp_path / f"{name}_report.json").read_bytes())
    assert reports[0] == reports[1]


TERNARY_SPACE = {"ifs": {"ratios": ["1/3", "1/3"], "offsets": ["0", "2/3"],
                         "symbols": ["0", "2"]}, "depth": 1}
IDENTITY = {"label": ["I"], "branches": [{"src": ["0", "1"], "slope": "1", "offset": "0"}]}


@pytest.mark.parametrize("doc, line", [
    # a2 replaced by a1, which keeps A1's complement inside B1, not A2's inside B2
    pytest.param(edited_certificate("free_pair", lambda d: d.update(a2=d["a1"])),
                 "INVALID (image(a2, K off A2) not inside B2)", id="a2-is-a1"),
    # every row of the identity holds, and the masses sum to 1
    pytest.param({"type": "invariant-measure", "space": TERNARY_SPACE,
                  "generators": [IDENTITY], "depth": 1, "masses": ["2", "-1"],
                  "consistency_depth": 1}, "INVALID (negative mass)", id="negative-mass"),
    # the masses meet every row at depth 1, and the claimed consistency is
    # shallower than the cells it would extend
    pytest.param({"type": "invariant-measure", "space": TERNARY_SPACE,
                  "generators": [IDENTITY], "depth": 1, "masses": ["1/2", "1/2"],
                  "consistency_depth": 0},
                 "INVALID (consistency_depth is below the depth)", id="shallow-consistency"),
    # an empty A1 meets no other region; the emptiness check names it
    # before the inclusion of a1(K) in B1 fails
    pytest.param(edited_certificate("free_pair", lambda d: d["A1"].update(pieces=[])),
                 "INVALID (A1 is empty)", id="empty-A1"),
    # no point moves out of an empty orbit
    pytest.param({"type": "finite-orbit", "space": TERNARY_SPACE,
                  "generators": [IDENTITY], "orbit": []}, "INVALID (empty orbit)",
                 id="empty-orbit"),
    # B grown by A's pieces: less of K lies off B, and f(K off A) stays in B
    pytest.param(edited_certificate(
        "free_pair", lambda d: d["B"]["pieces"].extend(d["A"]["pieces"]), **MORSE_SMALE),
                 "INVALID (A meets B)", id="A-meets-B"),
    # B shrunk to its left part: f's slope off A is still below 1, but
    # f^-1's is not off the smaller B
    pytest.param(edited_certificate("free_pair", lambda d: d["B"].update(
        pieces=[_open_piece("23/36", "55/81")]), **MORSE_SMALE),
                 "INVALID (inverse slope off B not below 1)", id="inverse-slope-off-B"),
    # B cut to its part from 2/3 on: both slope bounds hold, but f(K off A)
    # leaves it
    pytest.param(edited_certificate("free_pair", lambda d: d["B"].update(
        pieces=[_open_piece("2/3", "77/108")]), **MORSE_SMALE),
                 "INVALID (image of K off A escapes B)", id="image-escapes-B"),
    pytest.param(edited_certificate(
        "free_pair", lambda d: d["B"].update(pieces=[]), **MORSE_SMALE),
                 "INVALID (A and B must be nonempty)", id="empty-B"),
    # one mass for the two depth-1 cells
    pytest.param({"type": "invariant-measure", "space": TERNARY_SPACE,
                  "generators": [IDENTITY], "depth": 1, "masses": ["1"],
                  "consistency_depth": 1},
                 "INVALID (mass vector does not match the cell count)", id="mass-count"),
    # each mass is nonnegative and every row of the identity holds
    pytest.param({"type": "invariant-measure", "space": TERNARY_SPACE,
                  "generators": [IDENTITY], "depth": 1, "masses": ["1/2", "1/4"],
                  "consistency_depth": 1},
                 "INVALID (masses do not sum to 1)", id="mass-sum"),
])
def test_verify_rejects_forged_certificates(tmp_path, capsys, doc, line):
    # each document passes every check of verify but the one it forges
    if callable(doc):
        doc = doc(tmp_path)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (line + "\n", "")


@pytest.mark.parametrize("doc, line", [
    # each value, read as a list, gives its characters or its keys: one
    # mass "1" at depth 0, a1's label A1, the symbols 0 and 2, the offsets 0
    # and 2/3, and the orbit {0} of the identity would each verify
    pytest.param(edited_certificate("klein_four", lambda d: d.update(depth=0, masses="1")),
                 "masses: '1' is not a list", id="masses-one"),
    pytest.param(edited_certificate("klein_four", lambda d: d.update(depth=0, masses="11")),
                 "masses: '11' is not a list", id="masses-two"),
    pytest.param(edited_certificate("free_pair", lambda d: d["a1"].update(label="A1")),
                 "label: 'A1' is not a list", id="label"),
    pytest.param(edited_certificate(
        "free_pair", lambda d: d["space"]["ifs"].update(symbols="02")),
                 "ifs symbols: '02' is not a list", id="symbols"),
    pytest.param(edited_certificate(
        "free_pair", lambda d: d["space"]["ifs"].update(offsets={"0": 1, "2/3": 2})),
                 "ifs offsets: {'0': 1, '2/3': 2} is not a list", id="offsets"),
    pytest.param({"type": "finite-orbit", "space": TERNARY_SPACE,
                  "generators": [IDENTITY], "orbit": "0"}, "orbit: '0' is not a list",
                 id="orbit"),
])
def test_verify_names_a_list_field_that_is_not_a_list(tmp_path, capsys, doc, line):
    if callable(doc):
        doc = doc(tmp_path)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")
