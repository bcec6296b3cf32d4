"""Round trips for the JSON layer plus the exact feasibility solver."""

import json
import math
import os
import stat
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk import rational, serialize as ser
from cantorwalk.cli import _load_scenario_text, parse_scenario, run_scenario
from cantorwalk.certify import find_finite_orbit, find_morse_smale, solve_invariant_measure
from cantorwalk.maps import compose
from cantorwalk.measure_solver import solve_feasibility
from cantorwalk.rational import as_pair, pair_str, rat, read_pair
from cantorwalk.space import Piece, Region
from cantorwalk.verify import InvariantMeasureCertificate, PingPongCertificate, check_morse_smale
from cantorwalk.walk import epsilon_neighborhood, equals, make_model

from fixtures import (cantor_space, cylinder_region, fixture, named_generators, region, rotation,
                      same_set)

K = cantor_space(3)


# -- feasibility solver ------------------------------------------------------


def _sparse(rows):
    """Dense rows as the solver's {column: value} rows."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def test_solver_feasible_system():
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    rhs = [F(1), F(0)]
    res = solve_feasibility(_sparse(rows), rhs, 2)
    assert res.feasible and res.gap == 0
    assert res.solution == (F(1, 2), F(1, 2))


def test_solver_infeasible_has_exact_gap():
    # x >= 0 with x = -1 is infeasible by exactly 1
    res = solve_feasibility([{0: F(1)}], [F(-1)], 1)
    assert not res.feasible
    assert res.solution is None
    assert res.gap == 1


def test_solver_empty_system():
    res = solve_feasibility([], [], 0)
    assert res.feasible and res.solution == ()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_solver_solutions_satisfy_system(rows, rhs):
    rows = [[F(v) for v in row] for row in rows]
    rhs = [F(v) for v in rhs[:len(rows)]]
    res = solve_feasibility(_sparse(rows), rhs, 3)
    if res.feasible:
        assert all(x >= 0 for x in res.solution)
        for row, b in zip(rows, rhs):
            assert sum(c * x for c, x in zip(row, res.solution)) == b
    else:
        assert res.gap > 0


# -- space / map / region round trips ---------------------------------------


def test_space_round_trip():
    for space in (K, ser.space_from_obj({"intervals": [["0", "1/3"], ["2/3", "1"]]})):
        again = ser.space_from_obj(ser.space_to_obj(space))
        assert again.intervals == space.intervals
        assert (again.ifs is None) == (space.ifs is None)


def test_map_round_trip():
    for name in ("H", "R", "G3", "A1", "A2"):
        f = fixture(name, K)
        g = ser.map_from_obj(K, ser.map_to_obj(f))
        assert equals(f, g)
        assert g.label == f.label


def test_region_round_trip():
    reg = epsilon_neighborhood([F(0), F(1)], F(1, 27), K).union(
        Region.from_pieces(K, (Piece(F(2, 9), F(1, 3), True, False),)))
    again = ser.region_from_obj(K, ser.region_to_obj(reg))
    assert same_set(again, reg)
    assert again.pieces == reg.pieces


def test_giet_round_trip():
    # the document form of a rotation, a giet-blowup scenario's giet, reads
    # back as that rotation
    g = rotation(F(1, 3))
    obj = {"interval": ["0", "1"],
           "branches": [{"src": ["0", "2/3"], "slope": "1", "offset": "1/3"},
                        {"src": ["2/3", "1"], "slope": "1", "offset": "-2/3"}]}
    assert parse_scenario(json.dumps({"kind": "giet-blowup", "giets": [obj]})).giets == (g,)


# -- certificates ------------------------------------------------------------


def test_ping_pong_certificate_round_trip():
    cert = PingPongCertificate(
        fixture("A1", K), fixture("A2", K),
        cylinder_region(K, "22"), cylinder_region(K, "02"),
        cylinder_region(K, "00"), cylinder_region(K, "20"))
    obj = ser.certificate_to_obj(cert)
    assert obj["type"] == "ping-pong"
    assert ser.verify_certificate(obj)
    # round trip through canonical JSON text
    obj2 = json.loads(ser.dumps(obj))
    assert ser.verify_certificate(obj2)


def test_invariant_measure_certificate_round_trip():
    gens = named_generators(["H", "R"])
    cert = solve_invariant_measure(gens, 1, d_max=6)
    obj = ser.certificate_to_obj(cert)
    assert obj["type"] == "invariant-measure"
    assert obj["masses"] == ["1/2", "1/2"]
    assert ser.verify_certificate(obj)


def test_verify_checks_a_word_whose_sources_leave_gaps_of_the_limit_set():
    # A1∘A1 on the depth-3 set has branches deeper than the set: no source
    # holds (79/81, 80/81), a gap of the limit set inside an interval of K.
    # Pushed forward, its sources tile the limit set, so mu(K) = mu(K) is
    # expressible at depth 0 and (1) is invariant, though a preimage scan
    # leaves that equation out: image(invert(A1∘A1), K) does not cover K
    A1 = fixture("A1", K)
    a1a1 = compose(A1, A1)
    assert not any(b.lo <= F(159, 162) <= b.hi for b in a1a1.branches)
    cert = InvariantMeasureCertificate((a1a1,), 0, (F(1),), 0)
    obj = json.loads(ser.dumps(ser.certificate_to_obj(cert)))
    assert ser.verify_certificate(obj)


def test_finite_orbit_certificate_round_trip():
    gens = named_generators(["H", "R"])
    cert = find_finite_orbit(gens, [F(0)], bound=2000)
    obj = ser.certificate_to_obj(cert)
    assert obj["type"] == "finite-orbit"
    assert ser.verify_certificate(obj)


def test_morse_smale_certificate_round_trip():
    A1 = fixture("A1", K)
    A = Region.from_pieces(K, (Piece(F(8, 9), F(1), False, True),))
    B = region(K, [(0, F(1, 3))])
    cert = check_morse_smale(A1, A, B)
    assert cert
    obj = ser.certificate_to_obj(cert)
    assert obj["type"] == "morse-smale"
    assert ser.verify_certificate(obj)


@pytest.mark.parametrize("periodic", [[["1/2", 7, "5"]], []])
def test_verify_rejects_tampered_periodic_points(periodic):
    gens = named_generators(["A1", "A2"], with_inverses=True)
    cert = find_morse_smale(make_model(K, gens, seed=3), F(1, 27), n_max=40, runs=20)
    obj = ser.certificate_to_obj(cert)
    assert ser.verify_certificate(obj)
    obj["periodic"] = periodic
    v = ser.verify_certificate(obj)
    assert not v and "periodic" in v.reason


def test_verify_rejects_corrupted_certificate():
    gens = named_generators(["H", "R"])
    cert = find_finite_orbit(gens, [F(0)], bound=2000)
    obj = ser.certificate_to_obj(cert)
    obj["orbit"] = obj["orbit"][:-1]  # drop a point: closure breaks
    assert not ser.verify_certificate(obj)
    with pytest.raises(ser.SerializeError):
        ser.certificate_from_obj({"type": "nonsense", "space": ser.space_to_obj(K)})


def test_dumps_is_canonical():
    text = ser.dumps({"b": 1, "a": "2/3"})
    assert text == '{\n  "a": "2/3",\n  "b": 1\n}\n'


# -- the fast paths against the ones they replace -----------------------------


JSON_TEXT = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "é", "日本", "\U0001f600", ""])
JSON_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, math.nan, math.inf, -math.inf])
JSON_INTS = st.integers() | st.integers(10 ** 300, 10 ** 1000).map(lambda n: n * (-1) ** (n % 2))
JSON_VALUES = st.recursive(
    JSON_TEXT | JSON_INTS | JSON_FLOATS | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_dumps_is_what_json_dumps_writes(x):
    assert ser.dumps(x) == json.dumps(x, indent=2, sort_keys=True) + "\n"


def _outcome(read, value):
    """What read(value) returns, or the type and message of what it raises."""
    try:
        return read(value)
    except Exception as e:
        return type(e), str(e)


CANONICAL = ["0", "1", "-1", "1/3", "-2/3", "26/27", "-80/81", "7/2", "123456789012345678901/10",
             "2/" + "3" * 300, "-" + "9" * 4300]
NOT_CANONICAL = ["2/4", " 1/3", "1/3 ", "+1", "-0", "0/5", "3/1", "01/3", "1/03", "1.5", "1e3",
                 "1_000", "\u0661/\u0663", "\uff11/3", "1" * 4301, "1" * 4301 + "/3"]
REFUSED = ["1/0", "", "x", "1/", "/3", "--1", None, 1.5, True, ["1"]]


@pytest.mark.parametrize("value", CANONICAL + NOT_CANONICAL + REFUSED + [0, -7, 2 ** 70, F(-2, 6)])
def test_read_pair_is_the_pair_of_rat(value):
    assert _outcome(read_pair, value) == _outcome(lambda v: as_pair(rat(v)), value)
    if value in REFUSED:
        assert isinstance(_outcome(read_pair, value)[0], type)


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers(1, 10 ** 40), st.text(alphabet="0123456789-+/ ._e\u0661", max_size=9))
def test_read_pair_matches_rat_on_written_and_other_strings(n, d, text):
    assert read_pair(pair_str(as_pair(F(n, d)))) == as_pair(F(n, d))
    assert _outcome(read_pair, text) == _outcome(lambda v: as_pair(rat(v)), text)


def test_reading_a_certificate_calls_rat_only_for_the_ifs(tmp_path, monkeypatch):
    # every branch, piece and mass string is written canonical, so only the
    # IFS ratios and offsets, which are read as Fractions, go through rat
    scn = parse_scenario(_load_scenario_text("free_pair"))
    run_scenario(scn, str(tmp_path), False)
    doc = json.loads((tmp_path / f"{scn.output}_certificate.json").read_text())
    calls = []

    def counted(value, rat=rational.rat):
        calls.append(value)
        return rat(value)

    for name, module in list(sys.modules.items()):
        if name.startswith("cantorwalk") and hasattr(module, "rat"):
            monkeypatch.setattr(module, "rat", counted)
    assert ser.verify_certificate(doc)
    spec = doc["space"]["ifs"]
    assert calls == spec["ratios"] + spec["offsets"]


def test_atomic_write(tmp_path):
    path = str(tmp_path / "sub" / "out.json")
    ser.write_json_atomic(path, {"x": 1})
    with open(path) as fh:
        assert json.load(fh) == {"x": 1}


def test_atomic_text_write_keeps_line_ends_and_leaves_nothing_on_failure(tmp_path):
    path = tmp_path / "series.csv"
    ser.write_text_atomic(str(path), "step,x\r\n0,1.0\r\n")
    assert path.read_bytes() == b"step,x\r\n0,1.0\r\n"
    with pytest.raises(TypeError):
        ser.write_text_atomic(str(path), None)
    assert path.read_bytes() == b"step,x\r\n0,1.0\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["series.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_atomic_write_takes_the_mode_open_gives(tmp_path, umask):
    # the file is created as open() creates one, 0o666 less the umask, so a
    # certificate is as readable as any other file its writer makes
    path = tmp_path / "out.json"
    old = os.umask(umask)
    try:
        ser.write_json_atomic(str(path), {"x": 1})
        ser.write_text_atomic(str(tmp_path / "series.csv"), "step\r\n")
    finally:
        os.umask(old)
    for p in (path, tmp_path / "series.csv"):
        assert stat.S_IMODE(p.stat().st_mode) == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "series.csv"]
