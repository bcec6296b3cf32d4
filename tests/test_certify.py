"""Certificates: finite orbits, contraction, ping-pong, measures, Morse-Smale."""

from fractions import Fraction as F
from functools import partial, reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from cantorwalk import certify, maps, verify, walk
from cantorwalk.certify import (_make_letters, _reduced_words, AssemblyFailure, CertifyError,
                                InfeasibilityReport, _contraction_candidates,
                                assemble_free_pair, find_finite_orbit, find_morse_smale,
                                solve_invariant_measure, UnprovedMeasure)
from cantorwalk.maps import PrefixTable, compose, from_prefix_table, invert
from cantorwalk.space import Piece, Region, measure_cells
from cantorwalk.verify import (_is_invariant, _then, InvariantMeasureCertificate,
                               PingPongCertificate, check_morse_smale, invariance_rows,
                               periodic_points, verify_finite_orbit, verify_invariant_measure,
                               verify_ping_pong)
from cantorwalk.walk import epsilon_neighborhood, equals, make_model

from fixtures import (SPANNING_LETTERS, X0, X1, S, cantor_space, cylinder_region, finite_groups,
                      fixture, identity_map, named_generators, region)
from reference import orbit_closure_ref
from walk_statistics import free_group_sanity

K = cantor_space(3)
H = fixture("H", K)
R = fixture("R", K)
G3 = fixture("G3", K)
A1 = fixture("A1", K)
A2 = fixture("A2", K)
KLEIN_GENS = named_generators(["H", "R"])
FREE_GENS = named_generators(["A1", "A2"], with_inverses=True)


# -- finite orbits -------------------------------------------------------------


def test_find_finite_orbit_klein():
    orb = find_finite_orbit(KLEIN_GENS, [F(0)], bound=2000)
    assert list(orb.orbit) == [F(0), F(1, 3), F(2, 3), F(1)]
    assert verify_finite_orbit(orb)


def test_find_finite_orbit_negative_cases():
    assert find_finite_orbit(FREE_GENS, [F(0)], bound=2000) is None
    single = find_finite_orbit({"id": identity_map(K)}, [F(1, 3)], bound=2000)
    assert list(single.orbit) == [F(1, 3)]


def _tables_on(space, tables) -> dict:
    return {f"g{i}": from_prefix_table(PrefixTable(tuple(map(tuple, t))), space,
                                       label=(f"g{i}",))
            for i, t in enumerate(tables)}


def _assert_closure_matches(gens, starts):
    orbit = find_finite_orbit(gens, starts, bound=2000)
    assert (None if orbit is None else orbit.orbit) == orbit_closure_ref(gens, starts)
    if orbit is None:
        return
    n = len(orbit.orbit)
    assert find_finite_orbit(gens, starts, bound=n) == orbit
    if n > 1:
        assert find_finite_orbit(gens, starts, bound=n - 1) is None
        assert orbit_closure_ref(gens, starts, bound=n - 1) is None


# a finite closure S under the generators is the group orbit: g(S) is in S
# and as large, so g(S) = S and g^-1(S) = S.  An infinite one is infinite
# under the group too
@settings(max_examples=40, deadline=None)
@given(finite_groups(), st.lists(st.sampled_from(
    [F(0), F(1), F(1, 4), F(3, 4), F(1, 10), F(2, 9)]), min_size=1, max_size=2))
def test_finite_orbit_of_a_finite_group_is_the_two_sided_closure(group, starts):
    gens = _tables_on(cantor_space(3), group[1])
    _assert_closure_matches(gens, starts)
    assert find_finite_orbit(gens, starts, bound=2000) is not None


THOMPSON_F = _tables_on(K, [X0, X1])


@pytest.mark.parametrize("gens, starts, finite", [
    pytest.param(THOMPSON_F, [F(0)], True, id="F-min"),  # F fixes min and max K
    pytest.param(THOMPSON_F, [F(0), F(1)], True, id="F-ends"),
    pytest.param(THOMPSON_F, [F(1, 4)], False, id="F-quarter"),
    pytest.param(FREE_GENS, [F(0)], False, id="free-inverses"),
    pytest.param(named_generators(["A1", "A2"]), [F(1, 4)], False, id="free"),  # A1 fixes 1/4
])
def test_finite_orbit_under_f_and_the_free_pair_is_the_two_sided_closure(
        gens, starts, finite):
    _assert_closure_matches(gens, starts)
    assert (find_finite_orbit(gens, starts, bound=2000) is not None) == finite


def test_find_finite_orbit_inverts_no_map(monkeypatch):
    def refuse(*args):
        raise AssertionError("find_finite_orbit inverted a map")

    monkeypatch.setattr(certify, "invert", refuse)
    monkeypatch.setattr(maps, "invert", refuse)
    assert list(find_finite_orbit(KLEIN_GENS, [F(0)], bound=2000).orbit) == [
        F(0), F(1, 3), F(2, 3), F(1)]
    assert find_finite_orbit(FREE_GENS, [F(0)], bound=2000) is None


def test_verify_finite_orbit_applies_only_the_generators(monkeypatch):
    # the orbit theorem above: stable under each generator is stable under
    # its inverse, so verify inverts no map either
    orbit = find_finite_orbit(KLEIN_GENS, [F(0)], bound=2000)

    def refuse(*args):
        raise AssertionError("verify_finite_orbit inverted a map")

    monkeypatch.setattr(verify, "invert", refuse)
    assert verify_finite_orbit(orbit)


# -- contraction pairs -------------------------------------------------------


def find_contraction(model, eps):
    """The word, A and B of the first contraction candidate, or None."""
    return next((c[2:] for c in _contraction_candidates(model, eps, 40, 20)), None)


def test_find_contraction_a1():
    K5 = cantor_space(5)
    model = make_model(K5, {"A1": fixture("A1", K5)})
    res = find_contraction(model, F(1, 27))
    assert res is not None
    w, A, B = res
    k = len(w.label)
    assert set(w.label) == {"A1"} and k <= 8
    assert list(A) == [F(1)]
    assert list(B) == [F(1, 4)]


def test_find_contraction_g3():
    K5 = cantor_space(5)
    model = make_model(K5, {"G3": fixture("G3", K5)})
    w, A, B = find_contraction(model, F(1, 9))
    assert list(A) == [F(1)]
    assert list(B) == [F(0)]


def test_find_contraction_identity_none():
    K5 = cantor_space(5)
    model = make_model(K5, {"id": identity_map(K5)})
    assert find_contraction(model, F(1, 27)) is None


# -- ping-pong ---------------------------------------------------------------


_cyl = partial(cylinder_region, K)


def test_verify_ping_pong_fixture():
    cert = PingPongCertificate(A1, A2, _cyl("22"), _cyl("02"),
                               _cyl("00"), _cyl("20"))
    assert verify_ping_pong(cert)


def test_verify_ping_pong_rejects_overlap():
    cert = PingPongCertificate(A1, A2, _cyl("22"), _cyl("02"),
                               _cyl("00"), _cyl("2"))
    v = verify_ping_pong(cert)
    assert not v and "meets" in v.reason


def test_verify_ping_pong_rejects_identity():
    cert = PingPongCertificate(identity_map(K), A2, _cyl("22"), _cyl("02"),
                               _cyl("00"), _cyl("20"))
    assert not verify_ping_pong(cert)


def test_reduced_words_are_shortlex_and_reduced():
    letters, inv = _make_letters({"A1": A1, "A2": A2})
    assert inv == [2, 3, 0, 1]
    steps = []

    def spell(word, g):
        steps.append(g)
        return word + (g,)

    gen = _reduced_words(letters, inv, 3, (), spell)
    first = next(gen)
    assert first == ((0,), (A1,)) and len(steps) == 1  # lazy
    words = [first] + list(gen)
    idxs = [w for w, _ in words]
    assert [sum(len(w) == n for w in idxs) for n in (1, 2, 3)] == [4, 12, 36]
    assert idxs == sorted(idxs, key=lambda w: (len(w), w))
    assert not any(inv[a] == b for w in idxs for a, b in zip(w, w[1:]))
    assert all(value == tuple(letters[k] for k in w) for w, value in words)
    # the map fold applies each letter after the word before it
    for w, m in _reduced_words(letters, inv, 2, None, _then):
        assert equals(m, letters[w[0]] if len(w) == 1 else
                      compose(letters[w[1]], letters[w[0]]))


@pytest.mark.parametrize("named, inv, calls", [
    ({"A1": A1, "A2": A2}, [2, 3, 0, 1], (5, 2)),
    (FREE_GENS, [2, 3, 0, 1], (10, 4)),
    (KLEIN_GENS, [0, 1], (3, 2)),
])
def test_make_letters_inverts_each_letter_once(monkeypatch, named, inv, calls):
    # one inversion and one equals scan per named letter; an appended
    # inverse takes the index of the letter it was appended for.  Scanning
    # for the appended inverses' inverses too made 8 equals calls and 4
    # inversions on {A1, A2}; the two-pass construction made 15, 20 and 6
    # equals calls and 6, 8 and 4 inversions on these generators
    counts = {"equals": 0, "invert": 0}
    for name, fn in (("equals", equals), ("invert", invert)):
        monkeypatch.setattr(certify, name, lambda *a, name=name, fn=fn:
                            counts.__setitem__(name, counts[name] + 1) or fn(*a))
    letters, got = _make_letters(named)
    assert (counts["equals"], counts["invert"]) == calls
    assert got == inv
    gens = list(named.values())
    expected = gens + [invert(g) for g in gens if not any(
        equals(invert(g), h) for h in gens)]
    assert len(letters) == len(expected)
    assert all(g is h or equals(g, h) for g, h in zip(letters, expected))
    assert all(equals(invert(letters[j]), letters[k]) for j, k in enumerate(got))


def test_free_group_sanity():
    assert free_group_sanity(A1, A2, 4)
    assert not free_group_sanity(H, H, 2)  # a1 a2^-1 is the identity
    assert free_group_sanity(A1, A2, 1)
    assert not free_group_sanity(identity_map(K), A2, 1)


def test_assemble_free_pair_free_model():
    model = make_model(K, FREE_GENS, seed=3)
    cert = assemble_free_pair(model, F(1, 27), max_len=6, runs=100, n_max=40)
    assert isinstance(cert, PingPongCertificate)
    assert verify_ping_pong(cert)


def test_assemble_free_pair_klein_flags_finite_orbit():
    model = make_model(K, KLEIN_GENS)
    res = assemble_free_pair(model, F(1, 27), max_len=6, runs=100, n_max=40)
    assert isinstance(res, AssemblyFailure)
    assert res.stage == "contraction"
    assert res.flag == "finite-orbit"


def test_assemble_free_pair_identity_fails_at_contraction():
    model = make_model(K, {"id": identity_map(K)})
    res = assemble_free_pair(model, F(1, 27), max_len=6, runs=100, n_max=40)
    assert not res and res.stage == "contraction"


# -- invariant measures ------------------------------------------------------


def test_solve_invariant_measure_klein():
    cert = solve_invariant_measure(KLEIN_GENS, 1, d_max=6)
    assert cert
    assert cert.depth == 1
    assert cert.masses == (F(1, 2), F(1, 2))
    assert cert.consistency_depth == 6
    assert verify_invariant_measure(cert)


def test_solve_invariant_measure_g3_is_undecided():
    # G3 maps the cylinder 22w onto 2w with slope 3, so the preimage of a
    # depth-d cell inside [2/3, 1] is a depth-(d + 1) cylinder: at no depth
    # is every equation expressible, and a solution of the others proves
    # nothing
    res = solve_invariant_measure({"G3": G3}, 2, d_max=6)
    assert not res
    assert isinstance(res, UnprovedMeasure)
    assert (res.depth, res.skipped) == (2, 2)


def test_solve_invariant_measure_free_is_infeasible():
    res = solve_invariant_measure(named_generators(["A1", "A2"]), 3, d_max=6)
    assert not res
    assert isinstance(res, InfeasibilityReport)
    assert res.depth == 3
    assert res.gap > 0


def test_verify_invariant_measure_rejects_tampering():
    cert = solve_invariant_measure(KLEIN_GENS, 1, d_max=6)
    bad = InvariantMeasureCertificate(
        cert.gens, 1, (F(1), F(0)), cert.consistency_depth)
    v = verify_invariant_measure(bad)
    assert not v and v.reason == "invariance equation violated"


def test_measure_on_cells_finer_than_the_space_is_not_proved():
    # on the depth-3 space no preimage of a depth-4 cell under A1, A2 or an
    # inverse is a union of depth-4 cells: all 64 equations are skipped, so
    # any probability vector satisfies the ones that are left
    res = solve_invariant_measure(FREE_GENS, 4, d_max=8)
    assert not res
    assert isinstance(res, UnprovedMeasure)
    assert (res.depth, res.skipped) == (4, 64)
    forged = InvariantMeasureCertificate(
        tuple(FREE_GENS.values()), 4,
        (F(1),) + (F(0),) * 15, 8)
    v = verify_invariant_measure(forged)
    assert not v
    assert v.reason == "64 invariance equations are not expressible at depth 4"


def test_measure_under_a_map_carrying_a_gap_over_another_image():
    # S, as given, carries the gap (1, 2) of SPANNING over [16/5, 19/5],
    # which it fixes; stored cut at the gap, its images do not overlap, so
    # the pushed cells come out in image order and [16/5, 19/5] has its row
    # mu(c) = mu(c).  The uniform measure and the mass on that interval are
    # invariant under S, and the uniform measure under S and V
    uniform = (F(1, 4),) * 4
    assert verify_invariant_measure(InvariantMeasureCertificate((S,), 0, uniform, 0))
    lopsided = (F(0), F(0), F(1), F(0))
    assert verify_invariant_measure(InvariantMeasureCertificate((S,), 0, lopsided, 0))
    cert = solve_invariant_measure({"S": S, "V": SPANNING_LETTERS[1]}, 0, d_max=6)
    assert cert and (cert.depth, cert.masses) == (0, uniform)


@pytest.mark.parametrize("names, depth", [
    pytest.param(names, depth, id=f"{'-'.join(names)}-d{depth}")
    for names in (["A1", "A2"], ["H", "R"]) for depth in (3, 5)])
def test_find_measure_inverts_and_images_nothing(monkeypatch, names, depth):
    # the rows come from pushing the cells forward on int pairs, so the
    # solve inverts no map, takes no image and builds no region
    gens = named_generators(names, cantor_space(depth))
    expected = solve_invariant_measure(gens, depth, d_max=6)

    def refuse(*args, **kwargs):
        raise AssertionError("an inversion, image or region in find-measure")

    for mod in (maps, walk, certify, verify):
        for name in ("image", "invert"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setattr(Region, "__init__", refuse)
    assert solve_invariant_measure(gens, depth, d_max=6) == expected


def consistency_ladder_ref(cert: InvariantMeasureCertificate, d_max: int) -> int:
    """The deepest depth up to d_max to which the even split of each mass
    over its cell's descendants meets every invariance row, stopping at the
    first depth it fails: the rung loop find-measure ran before the theorem
    that every rung holds replaced it."""
    space = cert.gens[0].space
    cells = measure_cells(space, cert.depth)
    consistency = cert.depth
    for d2 in range(cert.depth + 1, d_max + 1):
        cells2 = measure_cells(space, d2)
        k = len(cells2) // len(cells)
        split = [m / k for m in cert.masses for _ in range(k)]
        if not _is_invariant(invariance_rows(cert.gens, cells2), split):
            break
        consistency = d2
    return consistency


@st.composite
def complete_systems(draw):
    """(gens, depth, d_max): one to three words of 1 to 4 letters in a
    finite group's tables, on a ternary space of depth 3 to 5."""
    _, tables = draw(finite_groups())
    letters = list(_tables_on(cantor_space(draw(st.integers(3, 5))), tables).values())
    words = draw(st.lists(st.lists(st.sampled_from(range(len(letters))),
                                   min_size=1, max_size=4), min_size=1, max_size=3))
    gens = {f"w{i}": reduce(compose, [letters[j] for j in w]) for i, w in enumerate(words)}
    depth = draw(st.integers(1, 5))
    return gens, depth, draw(st.sampled_from(range(depth, 8)))


# on a complete system each generator maps each depth-d cell onto a depth-d
# cell, so each child onto a child, and the ladder always reaches d_max
@settings(max_examples=150, deadline=None)
@given(complete_systems())
def test_a_certified_measure_is_consistent_to_d_max(system):
    gens, depth, d_max = system
    cert = solve_invariant_measure(gens, depth, d_max)
    assume(cert)  # falsy, among others, when not cell-aligned up to d_max
    assert cert.consistency_depth == d_max
    assert consistency_ladder_ref(cert, d_max) == d_max
    assert verify_invariant_measure(cert)


@pytest.mark.parametrize("d_max", [0, 3, 7])
def test_the_plain_set_measure_is_consistent_to_d_max(d_max):
    # measure_cells gives a plain set's intervals at every depth, so each
    # rung checks the depth-0 rows again
    cert = solve_invariant_measure({"S": S, "V": SPANNING_LETTERS[1]}, 0, d_max)
    assert cert.consistency_depth == d_max
    assert consistency_ladder_ref(cert, d_max) == d_max


def test_find_measure_builds_the_rows_once(monkeypatch):
    calls = []
    monkeypatch.setattr(certify, "invariance_rows",
                        lambda *a: calls.append(a) or invariance_rows(*a))
    cert = solve_invariant_measure(KLEIN_GENS, 1, d_max=6)
    assert cert.consistency_depth == 6
    assert len(calls) == 1


# -- periodic points and Morse-Smale ----------------------------------------


def test_periodic_points_a1():
    rep = periodic_points(A1, 3)
    assert rep.points == ((F(1, 4), 1, F(1, 9)), (F(1), 1, F(9)))
    assert rep.families == ()


def test_periodic_points_g3():
    rep = periodic_points(G3, 3)
    assert rep.points == ((F(0), 1, F(1, 3)), (F(1), 1, F(3)))


def test_periodic_points_r_family():
    # R's fixed point 1/2 falls in a gap; R^2 = id gives a period-2
    # non-hyperbolic family instead of isolated points
    rep = periodic_points(R, 2)
    assert rep.points == ()
    assert rep.families == ((F(0), F(1), 2),)


def test_check_morse_smale_a1():
    A = Region.from_pieces(K, (Piece(F(8, 9), F(1), False, True),))
    B = epsilon_neighborhood([F(0), F(1, 3)], F(1, 27), K).union(
        region(K, [(0, F(1, 3))]))
    cert = check_morse_smale(A1, A, B)
    assert cert
    assert cert.periodic == ((F(1, 4), 1, F(1, 9)), (F(1), 1, F(9)))


def test_check_morse_smale_g3_square():
    A = Region.from_pieces(K, (Piece(F(7, 9), F(1), False, True),))
    B = Region.from_pieces(K, (Piece(F(0), F(1, 2), True, False),))
    # G3 itself has a slope-1 branch meeting K off A in more than a point,
    # so it is honestly rejected; its square contracts there
    assert not check_morse_smale(G3, A, B)
    assert check_morse_smale(compose(G3, G3), A, B)


def test_check_morse_smale_rejects_isometry():
    A = Region.from_pieces(K, (Piece(F(7, 9), F(1), False, True),))
    B = Region.from_pieces(K, (Piece(F(0), F(1, 2), True, False),))
    v = check_morse_smale(R, A, B)
    assert not v and "slope" in v.reason


def test_find_morse_smale():
    cert = find_morse_smale(make_model(K, FREE_GENS, seed=3), F(1, 27), n_max=40, runs=20)
    assert cert
    assert check_morse_smale(cert.g, cert.A, cert.B)
    assert find_morse_smale(make_model(K, KLEIN_GENS), F(1, 27), n_max=40, runs=20) is None
    with pytest.raises(CertifyError):
        find_morse_smale(make_model(K, {"A1": A1}), F(1, 27), n_max=40, runs=20)
