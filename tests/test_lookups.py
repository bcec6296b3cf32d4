"""Bisected, one-pass and fast-path lookups against brute-force scans.

CompactSet._holds, Region.is_empty, Region._parts, maps.image,
maps.maps_into look up sorted intervals and branch sources by bisection,
walk.cell_image_runs pushes the cells' image runs through the letters of a
walk without composing its words, verify.invariance_rows pushes a tiling of K
by the cells forward through each map where a preimage route would invert
it and take cell images, walk._region_mass sums only the cells that meet a
region's hull, and maps.break_pairs reads break pairs off a
tiling, with no address expansion or gap lookup.
maps.compose keeps an inner branch's source when its image lies inside one
outer source, and maps.image takes a whole branch source's image ends as
they are.  The references, in tests/reference.py, scan every
interval, branch and cell pair, and cut and evaluate every branch, as a
plain reading of the definitions would; the rows reference takes the
preimage region of every cell and tests every cell for inclusion in it;
the break-pair reference asks for the gaps at every branch boundary
(every bounded gap on a plain set) and whether each image pair bounds a
gap from its right end, where maps.break_pairs compares the image pairs at
the gaps between consecutive sources with the gaps between consecutive
branch images, on either kind of set; the region-mass reference sums
every cell.
maps.break_pairs, maps.break_points, maps.apply, Ifs._cylinder_pairs,
the Region operations, maps.image, maps.maps_into, verify.invariance_rows,
verify.periodic_points, walk._region_mass and walk.break_accumulation
work on int pairs; a last test makes Fraction
arithmetic and ordering raise and asks them for the answers they gave
before.
"""

from fractions import Fraction as F
from itertools import product
from math import gcd
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cantorwalk import maps, walk
from cantorwalk.maps import (Branch, BreakPair, apply, break_pairs, break_points, compose,
                             image, invert, maps_into)
from cantorwalk.space import CompactSet, Ifs, Piece, Region, measure_cells
from cantorwalk.rational import as_pair, coprime_fraction
from cantorwalk.verify import invariance_rows, periodic_points
from cantorwalk.walk import (CellMeasure, Trajectory, _region_mass, break_accumulation,
                             cell_image_runs, epsilon_neighborhood, make_model, run_diameters)

from fixtures import (PLAIN_INVOLUTION, PLAIN_LETTERS, S, SPACES, SPANNING_LETTERS, TERNARY,
                      UNEQUAL, alphabets, cylinder_region, decompose_into_cylinders, extremes,
                      fixture, free_letters, identity_map, image_ends, letter_words, region,
                      region_diameter, regions, word_in)
from reference import (bounded_gaps, break_pairs_ref, compose_ref, contains_ref, gaps_at,
                       image_ref, infimum_ref, is_empty_ref, region_mass_ref, rows_ref,
                       supremum_ref)


@st.composite
def words(draw, max_size=6):
    """(space, a reduced word of length 0 to max_size in A1, A2 and
    inverses)."""
    ifs, depth = draw(st.sampled_from(SPACES))
    letters = free_letters(ifs, depth)
    w, last = None, None
    for i in draw(st.lists(st.integers(0, 3), max_size=max_size)):
        if last is not None and i == (last + 2) % 4:
            continue
        w = letters[i] if w is None else compose(letters[i], w)
        last = i
    K = letters[0].space
    return K, (w if w is not None else compose(letters[0], letters[2]))


# -- the comparisons -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPACES), st.data())
def test_contains_matches_scan(space, data):
    K = CompactSet.from_ifs(*space)
    ends = [x for iv in K.intervals for x in iv]
    x = data.draw(st.one_of(
        st.sampled_from(ends),
        st.fractions(K.hull[0] - 1, K.hull[1] + 1, max_denominator=3 ** 7)))
    assert K._holds(as_pair(x)) == contains_ref(K, x)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPACES), st.data())
def test_region_queries_match_scan(space, data):
    K = CompactSet.from_ifs(*space)
    S = data.draw(regions(K))
    assert S.is_empty() == is_empty_ref(S)
    if not S.is_empty():
        assert extremes(S) == (infimum_ref(S), supremum_ref(S))


@settings(max_examples=60, deadline=None)
@given(words(), st.data())
def test_image_matches_scan(word, data):
    K, w = word
    S = data.draw(regions(K))
    assert image(w, S) == image_ref(w, S)


@st.composite
def plain_words(draw):
    """(letters, a word in them, a region) on the plain sets: words of P,
    Q and P^-1, whose branch images touch at the image of a break inside an
    interval of K, or of S, T, their inverses and V, with one-point and
    flagged pieces between interval ends, branch ends and gap midpoints."""
    letters = draw(st.sampled_from(alphabets()[-2:]))
    w = word_in(letters, draw(st.lists(st.integers(0, len(letters) - 1),
                                     min_size=1, max_size=4)))
    K = w.space
    marks = sorted({x for b in w.branches for x in (b.lo, b.hi) + image_ends(b)} |
                   {x for iv in K.intervals for x in iv} |
                   {(a + b) / 2 for a, b in bounded_gaps(K)})
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = sorted(draw(st.lists(st.sampled_from(marks), min_size=2, max_size=2)))
        flags = (True, True) if a == b else (draw(st.booleans()), draw(st.booleans()))
        pieces.append(Piece(a, b, *flags))
    return letters, w, Region.from_pieces(K, pieces)


@settings(max_examples=80, deadline=None)
@given(plain_words())
def test_image_matches_scan_on_plain_sets(word):
    letters, w, S = word
    assert image(w, S) == image_ref(w, S)
    for g in letters:
        assert image(g, S) == image_ref(g, S)


def test_image_sorts_no_pieces(monkeypatch):
    # every letter of every alphabet on the whole set, its cells and
    # regions with one-point and flagged pieces, with the sort of
    # Region.from_pieces raising
    cases = []
    for letters in alphabets():
        K = letters[0].space
        lo, hi = K.hull
        Ss = [Region.whole(K), Region.from_pieces(K, [
            Piece(lo, lo, True, True), Piece((2 * lo + hi) / 3, (lo + hi) / 2, False, True),
            Piece((lo + hi) / 2, hi, False, False)])]
        Ss += [Region(K, (Piece._make((l, r, True, True)),)) for l, r in measure_cells(K, 1)]
        cases += [(g, S, image_ref(g, S)) for g in letters for S in Ss]

    def refuse(pieces):
        raise AssertionError("image sorted its pieces")

    monkeypatch.setattr("cantorwalk.space._normalize_pieces", refuse)
    for g, S, expected in cases:
        assert image(g, S) == expected


@settings(max_examples=60, deadline=None)
@given(letter_words(), st.data())
def test_compose_and_image_match_reference_loops(word, data):
    letters, w = word
    K = w.space
    for g in letters:
        assert compose(g, w) == compose_ref(g, w)
        assert compose(w, g) == compose_ref(w, g)
    assert all(image_ends(b) == tuple(sorted(b.slope * x + b.offset for x in (b.lo, b.hi)))
               for b in w.branches)
    for S in (Region.whole(K), data.draw(regions(K))):
        assert image(w, S) == image_ref(w, S)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cell_image_diameter_series_matches_image_regions(data):
    # the diameters after k steps against the image regions of the word of
    # the first k letters, for every k up to n
    letters = data.draw(st.sampled_from(alphabets()))
    steps = data.draw(st.lists(st.sampled_from(letters), max_size=10))
    K = letters[0].space
    words = [identity_map(K)]
    for g in steps:
        words.append(compose(g, words[-1]))
    walk = SimpleNamespace(step_map=steps.__getitem__)
    for d in range(K.depth + 2):
        cells = measure_cells(K, d)
        series = ([coprime_fraction(*x) for x in run_diameters(runs, len(cells))]
                  for runs in cell_image_runs(
                      walk, [(*c, i) for i, c in enumerate(cells)], len(steps)))
        for w, diams in zip(words, series, strict=True):
            assert diams == [
                region_diameter(image(w, Region(K, (Piece._make((l, r, True, True)),))))
                for l, r in cells]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_region_mass_matches_every_cell_sum(data):
    # float and exact masses on cells shallower and deeper than the depth of
    # every alphabet's set (K's own intervals on a plain set), on the images
    # and preimages under each letter of every cell (of every k-th one, for
    # 8 to 15 of them, when there are more), on flagged and one-point pieces
    # ending at interval ends and gap midpoints of K, on strict
    # eps-neighbourhoods of both ends of an interval of K and of other such
    # ends, eps with denominators such as 4914, and on the empty region; the
    # cells split must be the reference's too
    letters = data.draw(st.sampled_from(alphabets()))
    K = letters[0].space
    cells = measure_cells(K, data.draw(st.integers(0, K.depth + 2)))
    weights = data.draw(st.lists(st.integers(0, 9), min_size=len(cells),
                                 max_size=len(cells)).filter(any))
    if data.draw(st.booleans()):
        mu = CellMeasure(0, tuple(F(w, sum(weights)) for w in weights))
    else:
        mu = CellMeasure(0, tuple(w / sum(weights) for w in weights))
    ends = [x for l, r in K.intervals for x in (l, r)]
    ends += [(a + b) / 2 for a, b in zip(ends[1::2], ends[2::2])]
    pieces = []
    for _ in range(data.draw(st.integers(1, 3))):
        a, b = sorted(data.draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2)))
        if data.draw(st.booleans()):
            pieces.append(Piece(a, a, True, True))
        pieces.append(Piece(a, b, data.draw(st.booleans()), data.draw(st.booleans())))
    lo, hi = K.hull
    eps = (hi - lo) * F(data.draw(st.integers(1, 400)),
                        data.draw(st.sampled_from([4914, 2 * 3 ** 6, 1000])))
    centers = list(data.draw(st.sampled_from(K.intervals)))  # cuts its cell twice
    centers += data.draw(st.lists(st.sampled_from(ends), max_size=2))
    cell_regions = [Region(K, (Piece._make((l, r, True, True)),))
                    for l, r in cells[::max(1, len(cells) // 8)]]
    regions = [image(h, c) for g in letters for h in (g, invert(g)) for c in cell_regions]
    for R in regions + [Region.from_pieces(K, pieces), epsilon_neighborhood(centers, eps, K),
                        Region(K, ())]:
        assert _split_cells(mu, cells, K, R) == region_mass_ref(mu, cells, K, R)


def _split_cells(*args):
    """_region_mass's mass and the cells that it splits, in order, as
    region_mass_ref gives them: a cell cut only at a point, which carries
    no mass, splits as one cut anywhere else does."""
    calls, child_pairs, intersect = [], Ifs._child_pairs, Region.intersect
    with mock.patch.object(Ifs, "_child_pairs", lambda ifs, lo, hi: calls.append(
            ("children", lo, hi)) or child_pairs(ifs, lo, hi)), mock.patch.object(
            Region, "intersect", lambda a, b: calls.append(
                ("length", *a.pieces[0][:2])) or intersect(a, b)):
        return _region_mass(*args), calls


def test_region_mass_splits_a_plain_cell_by_the_length_of_its_overlap():
    # the region cuts the first cell of [0, 1] ∪ [2, 3] in two quarters: it
    # holds half that cell, though its hull there is the whole cell
    K = CompactSet.from_intervals([(0, 1), (2, 3)])
    mu = CellMeasure(0, (F(1, 2), F(1, 2)))
    R = region(K, [(0, F(1, 4)), (F(3, 4), 1)])
    assert _region_mass(mu, measure_cells(K, 0), K, R) == 0.25
    assert region_mass_ref(mu, measure_cells(K, 0), K, R)[0] == 0.25


@settings(max_examples=60, deadline=None)
@given(letter_words(), st.data())
def test_maps_into_matches_image_inclusion(word, data):
    # S is drawn, or one flagged piece between ends of K's intervals and
    # midpoints of its gaps, whose image may be one point; T is drawn, or
    # drawn and joined with the image, so both answers occur
    letters, w = word
    K = w.space
    marks = sorted({x for iv in K.intervals for x in iv} |
                   {(a + b) / 2 for a, b in bounded_gaps(K)})
    a, b = sorted(data.draw(st.lists(st.sampled_from(marks), min_size=2,
                                     max_size=2, unique=True)))
    S = data.draw(st.one_of(regions(K), st.builds(
        lambda flags: Region(K, (Piece(a, b, *flags),)),
        st.tuples(st.booleans(), st.booleans()))))
    T = data.draw(regions(K))
    if data.draw(st.booleans()):
        T = T.union(image_ref(w, S))
    assert (maps_into(w, S, T) == image(w, S).subset_of(T)
            == image_ref(w, S).subset_of(T))


@pytest.mark.parametrize("flags, inside", [
    ((True, True), True), ((False, True), False), ((True, False), False)])
def test_maps_into_reads_the_flags_of_a_shared_end(flags, inside):
    # the image of the cylinder [0, 1/3] under the identity ends where T's
    # one piece ends: it is inside T iff T holds both ends, which lie in K
    K = CompactSet.from_ifs(TERNARY, 2)
    S, T = cylinder_region(K, "0"), Region(K, (Piece(F(0), F(1, 3), *flags),))
    assert maps_into(identity_map(K), S, T) == inside


@pytest.mark.parametrize("space", SPACES)
def test_uncut_compose_takes_no_preimage(space):
    # a word that ends with A1^-1 maps each branch source into one source
    # of A1, so A1 after it cuts no branch: each branch of the product holds
    # the very source pairs of its branch of w, where taking preimages of
    # the image ends would build new ones
    a1, a2, a1i, a2i = free_letters(*space)
    src = [(b.lo, b.hi) for b in a1.branches]
    for w in (a1i, compose(a1i, a2), compose(a1i, compose(a2i, a1)),
              compose(a1i, compose(a2, compose(a2, a1)))):
        assert all(any(lo <= image_ends(b)[0] and image_ends(b)[1] <= hi for lo, hi in src)
                   for b in w.branches)
        out = compose(a1, w)
        assert out == compose_ref(a1, w)
        assert len(out.branches) == len(w.branches)
        assert all(u[0] is b[0] and u[1] is b[1]
                   for u, b in zip(out.branches, w.branches))


def _assert_canonical(b):
    """b stores int numerators over positive int denominators in lowest
    terms, and the branch rebuilt from its Fraction views equals it."""
    assert type(b) is Branch and len(b) == 6
    for n, d in b:
        assert type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1
    twin = Branch(b.lo, b.hi, b.slope, b.offset)
    assert twin == b and hash(twin) == hash(b)


@settings(max_examples=60, deadline=None)
@given(letter_words())
def test_branches_hold_reduced_int_pairs(word):
    # the alphabets hold the letters of words() on every IFS space, the
    # orientation-reversing R and the plain set's P, Q (slope -1) and P^-1
    letters, w = word
    for g in letters:
        for b in compose(g, w).branches + compose(w, g).branches:
            _assert_canonical(b)
    for b in invert(w).branches:
        _assert_canonical(b)


def _sources_cover_k(f):
    K = f.space
    sources = Region.from_pieces(K, [Piece(b.lo, b.hi, True, True) for b in f.branches])
    return Region.whole(K).subset_of(sources)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_preimage_cells_match_scan(data):
    # a word and the first letter of its alphabet on IFS and plain sets,
    # cells coarser than, equal to and finer than K's intervals (on a plain
    # set the cells are K's intervals at every depth).  A word whose
    # branches are deeper than an IFS set can leave points of K's intervals
    # (gaps of its limit set) out of every source, which the preimage scan
    # then puts in no row; its rows on cells no finer than K are read on the
    # same tables over a set deep enough that the sources cover it, where
    # the cells, the tiling and the branches are the same
    k = data.draw(st.integers(0, len(alphabets()) - 1))
    letters = alphabets()[k]
    idx = data.draw(st.lists(st.integers(0, len(letters) - 1), min_size=1, max_size=6))
    gens = [word_in(letters, idx), letters[0]]
    K = gens[0].space
    d = data.draw(st.integers(0, K.depth + 2))
    cells = measure_cells(K, d)
    ref, extra = gens, 0
    while d <= K.depth and not all(map(_sources_cover_k, ref)):
        extra += 1
        assume(extra <= 6)  # the deeper sets grow geometrically
        deeper = alphabets(extra)[k]
        ref = [word_in(deeper, idx), deeper[0]]
    assert invariance_rows(gens, cells) == rows_ref(ref, cells)


@settings(max_examples=40, deadline=None)
@given(words(max_size=8))
def test_break_pairs_match_three_query_loop(word):
    K, w = word
    assert break_pairs(w) == break_pairs_ref(w)


@settings(max_examples=40, deadline=None)
@given(letter_words(max_size=8))
def test_break_pairs_match_three_query_loop_over_every_alphabet(word):
    # the plain set and the reflections too, so both kinds of space and
    # negative slopes reach the pair kernels; apply at each break point
    # equals slope * x + offset of the rightmost branch holding it
    letters, w = word
    assert break_pairs(w) == break_pairs_ref(w)
    for x in break_points(w):
        b = [b for b in w.branches if b.lo <= x <= b.hi][-1]
        assert apply(w, x) == b.slope * x + b.offset


@pytest.mark.parametrize("space", SPACES)
def test_break_pairs_expand_each_point_once(space, monkeypatch):
    # break_pairs reads the gaps off a tiling, so on either kind of set it
    # expands no point (the gap lookups live in the tests), on words over the plain
    # alphabets and, evaluating no point either, on words over this
    # space's letters and over every IFS alphabet
    a1, a2, a1i, a2i = free_letters(*space)
    ws = [a1, a2i, compose(a1, a2), compose(a2, compose(a1i, a2)),
          compose(a1, compose(a1, compose(a2i, a1)))]
    ws += [compose(g, h) for letters in alphabets() if letters[0].space.ifs
           for g in letters for h in letters]
    plain = [compose(g, h) for letters in alphabets() if not letters[0].space.ifs
             for g in letters for h in letters]
    pairs, plain_pairs = [break_pairs_ref(w) for w in ws], [break_pairs_ref(w) for w in plain]
    assert all(pairs[:5]) and any(plain_pairs)

    def refuse(*args):
        raise AssertionError("an expansion or point value in break_pairs")

    monkeypatch.setattr(Ifs, "_expand", refuse)
    assert [break_pairs(w) for w in plain] == plain_pairs
    monkeypatch.setattr(maps, "_apply", refuse)
    assert [break_pairs(w) for w in ws] == pairs


def test_break_pairs_test_gaps_inside_a_plain_branch():
    # S's first branch spans the gap (1, 2) and carries it onto (3, 4),
    # which [16/5, 19/5] cuts, so (1, 2) is a break pair although no branch
    # ends at 1 or 2; T and V carry the gaps inside their branches onto gaps
    t, v = SPANNING_LETTERS
    assert break_pairs(S) == _pairs((1, 2), (3, "16/5"), ("19/5", 4))
    assert break_pairs(t) == _pairs((1, 2), ("19/5", 4))
    assert break_pairs(v) == _pairs((3, "16/5"), ("19/5", 4))
    ws = [S, t, v]
    ws += [compose(g, h) for g in ws for h in ws]
    ws += [compose(g, h) for g in ws[:3] for h in ws[3:]]
    assert [break_pairs(w) for w in ws] == [break_pairs_ref(w) for w in ws]


@settings(max_examples=40, deadline=None)
@given(letter_words(max_size=8).filter(lambda word: word[1].space.ifs))
def test_consecutive_sources_and_images_bound_gaps(word):
    # what break_pairs reads on IFS sets: for letters from prefix tables,
    # their words and inverses, the sources run from hull end to hull end
    # with a gap between neighbours, and so do the images sorted; a gap two
    # levels below the space is a break pair iff it maps onto no gap
    letters, w = word
    K = w.space
    lo, hi = K.hull
    for f in (w, invert(w), *letters):
        for ends in ([(b.lo, b.hi) for b in f.branches], sorted(image_ends(b) for b in f.branches)):
            assert ends[0][0] == lo and ends[-1][1] == hi
            assert all((r, l) in gaps_at(K, r) for (_, r), (l, _) in zip(ends, ends[1:]))
        breaks = break_pairs(f)
        cells = CompactSet.from_ifs(K.ifs, K.depth + 2).intervals
        for (_, a), (b, _) in zip(cells, cells[1:]):
            u, v = sorted((apply(f, a), apply(f, b)))
            assert (BreakPair(a, b) in breaks) != ((u, v) in gaps_at(K, u))


@pytest.mark.parametrize("space", SPACES)
def test_queries_on_pieces_touching_k(space):
    # pieces between neighbouring ends of K's intervals and midpoints of its
    # gaps, with every choice of closed ends, meet K in an interval, in one
    # end of an interval of K or of a branch source, or not at all
    K = CompactSet.from_ifs(*space)
    marks = sorted({x for iv in K.intervals for x in iv} |
                   {(a + b) / 2 for a, b in bounded_gaps(K)})
    for a, b in zip(marks, marks[1:]):
        for flags in product((True, False), repeat=2):
            T = Region(K, (Piece(a, b, *flags),))
            assert T.is_empty() == is_empty_ref(T)
            if not T.is_empty():
                assert extremes(T) == (infimum_ref(T), supremum_ref(T))
            for g in free_letters(*space):
                assert image(g, T) == image_ref(g, T)


def test_periodic_points_skip_kinks_of_a_plain_involution():
    # the square of P^-1∘Q∘P is the identity on both sides of its kinks at
    # 1/2 and 11/2, so they lie in period-2 families and are no hyperbolic
    # points; only the fixed point 5/2 of the reflection of [2, 3] is
    rep = periodic_points(PLAIN_INVOLUTION, 2)
    assert rep.points == ((F(5, 2), 1, F(-1)),)
    assert rep.families == tuple((F(lo), F(hi), 2) for lo, hi in (
        (0, F(1, 2)), (F(1, 2), 1), (2, 3), (4, F(11, 2)), (F(11, 2), 6)))


def test_preimage_cells_subset_checks_are_linear(monkeypatch):
    # the rows of the 128 depth-7 cells test no region for inclusion: the
    # preimage route made one Region._meets_where call per tested cell and
    # one per cover, and testing all pairs makes 128 * 129 of them
    K = CompactSet.from_ifs(TERNARY, 7)
    cells = measure_cells(K, 7)
    a1 = fixture("A1", K)
    expected = rows_ref([a1], cells)
    calls = []
    meets_where = Region._meets_where
    monkeypatch.setattr(Region, "_meets_where",
                        lambda r, ps, keep: calls.append(1) or meets_where(r, ps, keep))
    assert invariance_rows([a1], cells) == expected
    assert len(cells) == 128 and calls == []


def _pairs(*ends):
    return [BreakPair(F(a), F(b)) for a, b in ends]


def _region_regions(K):
    """Three regions on K: neighbourhoods of its ends and midpoint, its hull
    split at a third with the cut point in neither piece, and the whole."""
    lo, hi = K.hull
    cut = (2 * lo + hi) / 3
    return (epsilon_neighborhood([lo, hi, (lo + hi) / 2], (hi - lo) / 9, K),
            Region.from_pieces(K, [Piece(lo, cut, True, False), Piece(cut, hi, False, True)]),
            Region.whole(K))


def _region_answers(cases, g, cells):
    """Boolean operations, inclusions, images and maps_into on the regions
    of each (map, regions) case, and the invariance rows of g, as one tuple."""
    out = []
    for f, (A, B, W) in cases:
        off = W.difference(A)
        out += [A.union(B), A.intersect(B), A.difference(B), off, A.subset_of(B),
                A.subset_of(W), A.disjoint_from(B), off.disjoint_from(A), image(f, A),
                image(f, B), maps_into(f, W, A), maps_into(f, off, image(f, off))]
    return tuple(out) + (invariance_rows([g], cells),)


def _mass_regions(f):
    """On the depth-3 cells of f's IFS set: the image of each cell under f,
    and a region cut in a gap of the depth-5 set, whose cut cell splits two
    levels down, far above SPLIT_DEPTH."""
    K = f.space
    fine = CompactSet.from_ifs(K.ifs, 5).intervals
    coarse = CompactSet.from_ifs(K.ifs, 1).intervals
    cut = Region.from_pieces(K, [Piece((fine[0][1] + fine[1][0]) / 2,
                                       (coarse[0][1] + coarse[1][0]) / 2, False, True)])
    cells = measure_cells(K, 3)
    return cells, [image(f, Region(K, (Piece._make((l, r, True, True)),))) for l, r in cells] + [cut]


def _region_masses(cases):
    mu = CellMeasure(3, tuple(i / 36 for i in range(1, 9)))
    return [[_region_mass(mu, cells, R.space, R) for R in regions] for cells, regions in cases]


def test_pair_kernels_do_no_fraction_arithmetic(monkeypatch):
    # break_pairs and break_points on words of the ternary, unequal and
    # plain sets, the cylinder lookups of
    # tests/test_space.py::test_cylinders, the region kernels and periodic
    # points of A1, R and the plain involution, the region masses of A1 and
    # U1, and the break accumulation points of walks on all three sets, with
    # every Fraction comparison and arithmetic operator raising
    a1, a2, a1i, a2i = free_letters(TERNARY, 3)
    u1, u2 = free_letters(UNEQUAL, 3)[:2]
    p, q = PLAIN_LETTERS
    recorded = [
        (a1, _pairs(("7/9", "8/9"), ("25/27", "26/27"))),
        (a2i, _pairs(("7/9", "8/9"))),
        (compose(a1, a2), _pairs(("1/81", "2/81"), ("1/27", "2/27"))),
        (compose(a2, compose(a1i, a2)), _pairs(
            ("1/27", "2/27"), ("7/81", "8/81"), ("217/2187", "218/2187"),
            ("1/9", "2/9"))),
        (compose(u1, u2), _pairs(("1/256", "1/96"), ("1/64", "1/24"))),
        (compose(q, p), _pairs((1, 2), (3, 4)))]
    K = CompactSet.from_ifs(TERNARY, 3)
    cylinders = [
        ((F(0), F(1, 3)), [("0", F(0), F(1, 3))]),
        ((F(0), F(1)), [("", F(0), F(1))]),
        ((F(2, 9), F(7, 9)), [("02", F(2, 9), F(1, 3)), ("20", F(2, 3), F(7, 9))]),
        ((F(1, 4), F(1)), None),
        ((F(1, 3), F(1)), None),
        ((F(2, 3 ** 25), F(1, 3)),
         [("0" * k + "2", F(2, 3 ** (k + 1)), F(1, 3 ** k)) for k in range(24, 0, -1)])]
    cells = measure_cells(K, 3)
    cases = [(f, _region_regions(f.space)) for f in (a1, u1, p)]
    regions = _region_answers(cases, a1, cells)
    assert regions[-1] == [(0, 2, [0, 1, 2, 3]), (0, 3, [4, 5])]
    assert regions[10:12] == (False, True)
    powers = ((a1, 6), (fixture("R", K), 2), (PLAIN_INVOLUTION, 2))
    periodic = [periodic_points(f, n) for f, n in powers]
    assert periodic[0].points == ((F(1, 4), 1, F(1, 9)), (F(1), 1, F(9)))
    mass_cases = [_mass_regions(f) for f in (a1, u1)]
    masses = _region_masses(mass_cases)
    assert masses[0][-1] == 1 / 36 * 0.75 + 2 / 36 + 3 / 36 + 4 / 36
    points = [break_points(w) for w, _ in recorded]
    assert points[1] == [F(7, 9), F(8, 9)]
    # each trajectory is built, and its Fraction probabilities cut, before
    # the operators raise
    models = [make_model(gens[0].space, dict(zip("abcd", gens)), seed=5)
              for gens in (free_letters(TERNARY, 3), free_letters(UNEQUAL, 3), PLAIN_LETTERS)]
    walks = [(Trajectory(m, stream=1), Trajectory(m, stream=1)) for m in models]
    accumulated = [break_accumulation(t, 12) for t, _ in walks]
    assert all(accumulated)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic or comparison in a pair kernel")

    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__add__", "__sub__",
                 "__mul__", "__truediv__"):
        monkeypatch.setattr(F, name, refuse)
    for w, pairs in recorded:
        assert break_pairs(w) == pairs
    for (lo, hi), parts in cylinders:
        assert decompose_into_cylinders(K, lo, hi) == parts
    assert K.ifs.cylinder("02") == ((2, 9), (1, 3))
    assert _region_answers(cases, a1, cells) == regions
    assert [periodic_points(f, n) for f, n in powers] == periodic
    assert _region_masses(mass_cases) == masses
    assert [break_points(w) for w, _ in recorded] == points
    assert [break_accumulation(t, 12) for _, t in walks] == accumulated
