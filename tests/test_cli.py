"""Scenario parsing, bundled runs, determinism and the verify subcommand."""

import json
import os
from fractions import Fraction as F

import pytest

from cantorwalk.cli import (BUDGET_ENV, DEFAULT_BUDGETS, ScenarioError,
                            _env_budgets, main, parse_scenario, run_scenario,
                            _load_scenario_text)
from cantorwalk.maps import MapError
from cantorwalk.space import ternary_cantor

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


def test_env_budget_parsing(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "n=10, eps=1/81")
    assert _env_budgets() == {"n": 10, "eps": "1/81"}
    monkeypatch.setenv(BUDGET_ENV, "bogus=3")
    with pytest.raises(ScenarioError):
        _env_budgets()


def test_run_identity_is_undecided(tmp_path):
    code, line = run_scenario(_bundled("identity"), out_dir=str(tmp_path))
    assert code == 2
    assert line == "undecided within budget"
    report = json.load(open(tmp_path / "identity_report.json"))
    assert report["verified"] is False and report["stage"] == "contraction"


def test_run_klein_four_measure(tmp_path):
    code, line = run_scenario(_bundled("klein_four"), out_dir=str(tmp_path))
    assert code == 0
    assert line == "INVARIANT MEASURE (depth 1, consistent to 6)"
    cert = json.load(open(tmp_path / "klein_four_certificate.json"))
    assert cert["masses"] == ["1/2", "1/2"]


def test_run_rotation_blowup(tmp_path):
    code, line = run_scenario(_bundled("rotation_third"), out_dir=str(tmp_path))
    assert code == 0
    assert line == "BLOWUP (3 points, exact)"
    blow = json.load(open(tmp_path / "rotation_third_blowup.json"))
    assert blow["exact"] is True
    assert len(blow["blown_points"]) == 3


def test_run_g3_simulation_with_series(tmp_path):
    code, line = run_scenario(_bundled("g3"), out_dir=str(tmp_path),
                              emit_series=True)
    assert code == 0
    assert line.startswith("SIMULATED")
    assert (tmp_path / "g3_report.json").exists()
    head = open(tmp_path / "g3_series.csv").readline()
    assert head.startswith("step,diam_cell_0")


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d in (a, b):
        run_scenario(_bundled("klein_four"), out_dir=str(d))
    ra = (a / "klein_four_report.json").read_bytes()
    rb = (b / "klein_four_report.json").read_bytes()
    assert ra == rb
    ca = (a / "klein_four_certificate.json").read_bytes()
    cb = (b / "klein_four_certificate.json").read_bytes()
    assert ca == cb


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


def test_main_kind_mismatch(capsys):
    assert main(["simulate", "free_pair"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_main_missing_scenario(capsys):
    assert main(["simulate", "no_such_scenario"]) == 1
    assert "not found" in capsys.readouterr().err


def test_morse_smale_kind(tmp_path):
    scn = parse_scenario(json.dumps(dict(
        json.loads(_load_scenario_text("free_pair")),
        kind="morse-smale", seed=3, budgets={}, output="ms")))
    code, line = run_scenario(scn, out_dir=str(tmp_path))
    assert code == 0
    assert line.startswith("MORSE-SMALE")
    report = json.load(open(tmp_path / "ms_report.json"))
    assert report["periodic"]


@pytest.mark.parametrize("doc", [
    {"type": "ping-pong"},
    [1, 2],
    {"type": "invariant-measure", "space": {"intervals": 5}},
])
def test_verify_malformed_certificate_exits_1(tmp_path, capsys, doc):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error: malformed certificate")
    assert captured.err.count("\n") == 1


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


@pytest.mark.parametrize("output", ["../x", "/tmp/x", "a/b", "", ".", ".."])
def test_parse_rejects_output_paths(output):
    text = json.dumps(dict(json.loads(_load_scenario_text("g3")), output=output))
    with pytest.raises(ScenarioError, match="not a file name"):
        parse_scenario(text)


def test_verify_rejects_duplicate_generator_labels(tmp_path, capsys):
    # H and the identity, both labelled X: the masses (1, 0) are invariant
    # under the identity only, so checking one generator per label would
    # accept the document
    run_scenario(_bundled("klein_four"), out_dir=str(tmp_path))
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
    code, _ = run_scenario(scn, out_dir=str(tmp_path), seed=6)
    assert code == 0
    cert = tmp_path / "free_pair_certificate.json"
    slopes = [F(b["slope"]) for b in json.loads(cert.read_text())["a2"]["branches"]]
    assert F(1, 3 ** 21) in slopes
    assert main(["verify", str(cert)]) == 0
    assert "VERIFIED" in capsys.readouterr().out
