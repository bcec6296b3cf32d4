"""The map checks on int pairs against the Fraction code they replaced.

maps.pa_homeo sorts and validates branches on their int pairs, maps.equals
compares the maps' maximal affine pieces on pairs, and
certify.find_finite_orbit closes its seeds on pairs and builds the orbit's
Fractions once, at the end.  The references are the Fraction versions:
equals_ref below sweeps over the cuts with every branch found by a scan,
and reference.orbit_closure_ref closes the seeds by a breadth-first search
over a scan of K and the branches.  The last two tests make
every way of building a Fraction raise: one validates a long word and
compares letters, the other builds prefix-table maps, cells at other
depths than the space's and their invariance rows.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk import maps, space, walk
from cantorwalk.certify import _make_letters, find_finite_orbit
from cantorwalk.cli import _load_scenario_text, parse_scenario
from cantorwalk.maps import MapError, compose, from_prefix_table, invert, pa_homeo
from cantorwalk.space import measure_cells
from cantorwalk.verify import invariance_rows
from cantorwalk.walk import equals

from fixtures import (TABLES, alphabets, cantor_space, fixture, identity_map, named_generators,
                      word_in)
from reference import branch_ref, orbit_closure_ref


# -- references ---------------------------------------------------------------


def equals_ref(f, g):
    """maps.equals on Fractions: between consecutive branch ends, a segment
    of K of positive length needs the same slope and offset in both maps,
    and a single point the same value."""
    if f.space != g.space:
        return False
    cuts = sorted({x for b in f.branches + g.branches for x in (b.lo, b.hi)})
    for l, r in zip(cuts, cuts[1:]):
        for kl, kr in f.space.intervals:
            if kr < l or r < kl:
                continue
            olo, ohi = max(kl, l), min(kr, r)
            bf, bg = branch_ref(f, olo), branch_ref(g, olo)
            if olo < ohi:
                if (bf.slope, bf.offset) != (bg.slope, bg.offset):
                    return False
            elif bf.slope * olo + bf.offset != bg.slope * olo + bg.offset:
                return False
    return True


# -- equality -------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_equals_matches_the_fraction_sweep(data):
    # two words over one alphabet, and each word against itself with a
    # letter and its inverse appended: equal maps whose branch lists differ
    letters = data.draw(st.sampled_from(alphabets()))
    index = st.integers(0, len(letters) - 1)
    w, v = (word_in(letters, data.draw(st.lists(index, min_size=1, max_size=6)))
            for _ in range(2))
    g = letters[data.draw(index)]
    padded = compose(w, compose(invert(g), g))
    for f, h in ((w, v), (w, padded), (padded, w), (v, padded), (w, w)):
        assert equals(f, h) == equals_ref(f, h)
    assert equals(w, padded)


def test_equals_on_equal_maps_with_different_branch_lists():
    gens = named_generators(["A1", "A2"], with_inverses=True)
    a1, a2, a1i, a2i = gens.values()
    identity = compose(a2i, compose(a1i, compose(a1, a2)))
    assert len(identity.branches) > 1
    assert equals(identity, identity_map(a1.space))
    assert equals_ref(identity, identity_map(a1.space))
    assert not equals(identity, a1) and not equals_ref(identity, a1)


# -- finite orbits --------------------------------------------------------------


def _scenario_gens(name):
    return parse_scenario(_load_scenario_text(name)).generators


@pytest.mark.parametrize("name, bound, expected", [
    ("klein_four", 2000, [F(0), F(1, 3), F(2, 3), F(1)]),
    ("identity", 2000, [F(0)]),
    ("free_pair", 512, None),
])
def test_finite_orbits_of_the_bundled_generators(name, bound, expected):
    gens = _scenario_gens(name)
    orbit = find_finite_orbit(gens, [F(0)], bound=bound)
    ref = orbit_closure_ref(gens, [F(0)], bound=bound)
    if expected is None:
        assert orbit is None and ref is None
    else:
        assert list(orbit.orbit) == expected == list(ref)
        assert orbit.orbit == ref
        assert orbit.gens == tuple(gens.values())


def test_finite_orbit_from_several_seeds():
    gens = _scenario_gens("klein_four")
    starts = [F(1, 9), "2/9", 0, F(1, 9)]
    assert find_finite_orbit(gens, starts, bound=2000).orbit == orbit_closure_ref(gens, starts)


def test_finite_orbit_seed_off_k_raises_as_before():
    gens = _scenario_gens("klein_four")
    for seed in (F(1, 2), F(5, 4)):
        with pytest.raises(MapError) as new:
            find_finite_orbit(gens, [seed], bound=2000)
        with pytest.raises(MapError) as ref:
            orbit_closure_ref(gens, [seed])
        assert str(new.value) == str(ref.value) == f"{seed} not in the ambient set"


# -- no Fraction built --------------------------------------------------------


def test_map_checks_build_no_fraction(monkeypatch):
    # a reduced word of 30 letters over A1, A2 and their inverses, composed
    # before Fractions are refused; then pa_homeo validates it and equals
    # compares every pair of letters on int pairs alone
    K = cantor_space(3)
    named = named_generators(["A1", "A2"], space=K)
    letters = list(named.values()) + [invert(g) for g in named.values()]
    rng, idxs = random.Random(28), []
    while len(idxs) < 30:
        i = rng.randrange(4)
        if not idxs or i != (idxs[-1] + 2) % 4:
            idxs.append(i)
    w = letters[idxs[0]]
    for i in idxs[1:]:
        w = compose(letters[i], w)
    shuffled = list(w.branches)
    random.Random(29).shuffle(shuffled)
    table = [[equals(g, h) for h in letters] for g in letters]
    assert table == [[i == j for j in range(4)] for i in range(4)]

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction built in a map check")

    monkeypatch.setattr(maps, "coprime_fraction", refuse)
    monkeypatch.setattr(space, "coprime_fraction", refuse)
    monkeypatch.setattr(F, "__new__", refuse)
    with pytest.raises(AssertionError, match="a Fraction built"):
        F(1, 3)
    assert pa_homeo(K, shuffled, label=w.label) == w
    assert [[equals(g, h) for h in letters] for g in letters] == table
    got, inv = _make_letters(named)
    assert got == letters and inv == [2, 3, 0, 1]


def test_prefix_tables_cells_and_rows_build_no_fraction(monkeypatch):
    # from_prefix_table builds H, R, G3, A1 and A2 from the cylinders' int
    # pairs; measure_cells at depths other than the space's and the
    # invariance rows there read them too
    K = cantor_space(3)
    names = ("H", "R", "G3", "A1", "A2")
    gens = [fixture(n, K) for n in names]
    depths = (0, 1, 2, 4, 5)
    cells = [measure_cells(K, d) for d in depths]
    rows = [invariance_rows(gens, c) for c in cells]
    assert [len(c) for c in cells] == [2 ** d for d in depths]

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction built for a table, a cell or a row")

    for module in (maps, space, walk):
        monkeypatch.setattr(module, "coprime_fraction", refuse)
    monkeypatch.setattr(F, "__new__", refuse)
    assert [from_prefix_table(TABLES[n], K, label=(n,)) for n in names] == gens
    assert [measure_cells(K, d) for d in depths] == cells
    assert [invariance_rows(gens, c) for c in cells] == rows
