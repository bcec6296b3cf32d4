"""Bisected, one-pass and fast-path lookups against brute-force scans.

CompactSet.contains, Region.is_empty, infimum, supremum, maps.image and
walk.preimage_cell_indices look up sorted intervals, branch sources and
cells by bisection, and maps.break_pairs expands each branch boundary once.
maps.compose keeps an inner branch's source when its image lies inside one
outer source, and maps.image takes a whole branch source's image ends as
they are.  The references below scan every interval, branch and cell pair,
and cut and evaluate every branch, as a plain reading of the definitions
would; the break-pair reference asks whether an image pair bounds a gap
from its right end, where maps.break_pairs asks from its left end.
"""

from fractions import Fraction as F
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk.fixtures import TABLES, fixture
from cantorwalk.maps import (Branch, BreakPair, PAHomeo, PrefixTable, apply,
                             break_pairs, compose, from_prefix_table, image,
                             invert, pa_homeo)
from cantorwalk.space import CompactSet, Ifs, Piece, Region
from cantorwalk.walk import measure_cells, preimage_cell_indices

TERNARY = Ifs((F(1, 3), F(1, 3)), (F(0), F(2, 3)), ("0", "2"))
UNEQUAL = Ifs((F(1, 4), F(1, 3)), (F(0), F(2, 3)), ("0", "2"))
SPACES = [(TERNARY, d) for d in (3, 4, 5)] + [(UNEQUAL, 3), (UNEQUAL, 4)]


@cache
def _letters(ifs, depth):
    """A1, A2 and their inverses on the depth-d set of the IFS."""
    K = CompactSet.from_ifs(ifs, depth)
    gens = [from_prefix_table(TABLES[n], K, label=(n,)) for n in ("A1", "A2")]
    return gens + [invert(g) for g in gens]


@st.composite
def words(draw, max_size=6):
    """(space, a reduced word of length 0 to max_size in A1, A2 and
    inverses)."""
    ifs, depth = draw(st.sampled_from(SPACES))
    letters = _letters(ifs, depth)
    w, last = None, None
    for i in draw(st.lists(st.integers(0, 3), max_size=max_size)):
        if last is not None and i == (last + 2) % 4:
            continue
        w = letters[i] if w is None else compose(letters[i], w)
        last = i
    K = letters[0].space
    return K, (w if w is not None else compose(letters[0], letters[2]))


# a set without IFS structure, a piecewise-linear map with a break inside
# [0, 1] that swaps [2, 3] and [4, 6], and an orientation-reversing involution
PLAIN = CompactSet.from_intervals([(0, 1), (2, 3), (4, 6)])
PLAIN_LETTERS = (
    pa_homeo(PLAIN, [Branch(F(0), F(1, 2), F(1, 2), F(0)),
                     Branch(F(1, 2), F(1), F(3, 2), F(-1, 2)),
                     Branch(F(2), F(3), F(2), F(0)),
                     Branch(F(4), F(6), F(1, 2), F(0))], label=("P",)),
    pa_homeo(PLAIN, [Branch(F(0), F(1), F(-1), F(3)),
                     Branch(F(2), F(3), F(-1), F(3)),
                     Branch(F(4), F(6), F(-1), F(10))], label=("Q",)))


@cache
def _alphabets():
    """Letter sets: A1, A2 and inverses on every space; the same with the
    reflection R on the ternary set; P, Q and P^-1 on the plain set."""
    K = CompactSet.from_ifs(TERNARY, 3)
    r = from_prefix_table(PrefixTable((("", "", -1),)), K, label=("R",))
    return ([_letters(*space) for space in SPACES] +
            [_letters(TERNARY, 3) + [r],
             list(PLAIN_LETTERS) + [invert(PLAIN_LETTERS[0])]])


@st.composite
def letter_words(draw, max_size=10):
    """(letters, a word of length 1 to max_size in them) with no letter
    next to its inverse: among the first four, letters i and (i + 2) % 4
    are mutually inverse."""
    letters = draw(st.sampled_from(_alphabets()))
    w, last = None, None
    for i in draw(st.lists(st.integers(0, len(letters) - 1), min_size=1,
                           max_size=max_size)):
        if last is not None and max(i, last) < 4 and i == (last + 2) % 4:
            continue
        w = letters[i] if w is None else compose(letters[i], w)
        last = i
    return letters, w


@st.composite
def regions(draw, K):
    """Unions of cells of K and of flagged rational intervals near its hull."""
    lo, hi = K.hull
    cells = measure_cells(K, draw(st.integers(1, K.depth + 1)))
    pieces = [Piece(l, r, True, True) for l, r in
              draw(st.lists(st.sampled_from(cells), max_size=3))]
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted(draw(st.lists(
            st.fractions(lo - F(1, 8), hi + F(1, 8), max_denominator=3 ** 6),
            min_size=2, max_size=2)))
        pieces.append(Piece(a, b, draw(st.booleans()), draw(st.booleans())))
    return Region.from_pieces(K, pieces)


# -- brute-force references ------------------------------------------------


def contains_ref(K, x):
    return any(l <= x <= r for l, r in K.intervals)


def meets_ref(K, p):
    for l, r in K.intervals:
        olo, ohi = max(l, p.lo), min(r, p.hi)
        if olo < ohi or (olo == ohi and (olo > p.lo or p.lo_closed)
                         and (ohi < p.hi or p.hi_closed)):
            return True
    return False


def is_empty_ref(S):
    return not any(meets_ref(S.space, p) for p in S.pieces)


def infimum_ref(S):
    for p in S.pieces:
        for l, r in S.space.intervals:
            olo = max(l, p.lo)
            if olo <= min(r, p.hi) and meets_ref(S.space, Piece(
                    olo, min(r, p.hi), p.lo_closed or olo > p.lo, True)):
                return olo
    return None


def supremum_ref(S):
    best = None
    for p in S.pieces:
        for l, r in S.space.intervals:
            ohi = min(r, p.hi)
            if max(l, p.lo) <= ohi and meets_ref(S.space, Piece(
                    max(l, p.lo), ohi, True, p.hi_closed or ohi < p.hi)):
                best = ohi if best is None else max(best, ohi)
    return best


def supremum_max_ref(S):
    """The largest point of K in any piece, over every interval of K."""
    best = None
    for p in S.pieces:
        for l, r in S.space.intervals:
            olo, ohi = max(l, p.lo), min(r, p.hi)
            if olo < ohi or (olo == ohi and (olo > p.lo or p.lo_closed)
                             and (ohi < p.hi or p.hi_closed)):
                best = ohi if best is None else max(best, ohi)
    return best


def break_candidates_ref(f):
    """The interior branch boundaries, and the gaps whose closure holds one."""
    K = f.space
    bounds = {x for b in f.branches for x in (b.lo, b.hi)} - set(K.hull)
    candidates = {g for t in bounds for g in K.gaps_at(t)}
    return bounds, candidates


def break_pairs_ref(f):
    out = []
    for a, b in sorted(break_candidates_ref(f)[1]):
        u, v = sorted((apply(f, a), apply(f, b)))
        if (u, v) not in f.space.gaps_at(v):
            out.append(BreakPair(a, b))
    return out


def _intersect_piece(a, b):
    if a.lo > b.lo or (a.lo == b.lo and (b.lo_closed or not a.lo_closed)):
        lo, lo_closed = a.lo, a.lo_closed and (b.lo < a.lo or b.lo_closed)
    else:
        lo, lo_closed = b.lo, b.lo_closed and (a.lo < b.lo or a.lo_closed)
    if a.hi < b.hi or (a.hi == b.hi and (b.hi_closed or not a.hi_closed)):
        hi, hi_closed = a.hi, a.hi_closed and (b.hi > a.hi or b.hi_closed)
    else:
        hi, hi_closed = b.hi, b.hi_closed and (a.hi > b.hi or a.hi_closed)
    if lo < hi or lo == hi and lo_closed and hi_closed:
        return Piece(lo, hi, lo_closed, hi_closed)
    return None


def image_ref(f, S):
    pieces = []
    for b in f.branches:
        for p in S.pieces:
            q = _intersect_piece(p, Piece(b.lo, b.hi, True, True))
            if q is None:
                continue
            va, vb = b.value(q.lo), b.value(q.hi)
            if b.slope > 0:
                pieces.append(Piece(va, vb, q.lo_closed, q.hi_closed))
            else:
                pieces.append(Piece(vb, va, q.hi_closed, q.lo_closed))
    return Region.from_pieces(f.space, pieces)


def compose_ref(f, g):
    """f∘g, cutting every branch of g at every source of f it meets."""
    out = []
    for bg in g.branches:
        ia, ib = sorted((bg.value(bg.lo), bg.value(bg.hi)))
        for bf in f.branches:
            olo, ohi = max(ia, bf.lo), min(ib, bf.hi)
            if olo < ohi:
                pa, pb = sorted((bg.preimage(olo), bg.preimage(ohi)))
                out.append(Branch(pa, pb, bf.slope * bg.slope,
                                  bf.slope * bg.offset + bf.offset))
    out.sort(key=lambda b: b.lo)
    return PAHomeo(f.space, tuple(out), f.label + g.label)


def preimage_ref(g, cells):
    ginv = invert(g)
    K = g.space
    regs = [Region.from_pieces(K, [Piece(l, r, True, True)]) for l, r in cells]
    out = []
    for reg in regs:
        pre = image(ginv, reg)
        js = [j for j, cr in enumerate(regs) if cr.subset_of(pre)]
        cover = Region.from_pieces(K, [p for j in js for p in regs[j].pieces])
        out.append(js if pre.subset_of(cover) else None)
    return out


# -- the comparisons -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPACES), st.data())
def test_contains_matches_scan(space, data):
    K = CompactSet.from_ifs(*space)
    ends = [x for iv in K.intervals for x in iv]
    x = data.draw(st.one_of(
        st.sampled_from(ends),
        st.fractions(K.hull[0] - 1, K.hull[1] + 1, max_denominator=3 ** 7)))
    assert K.contains(x) == contains_ref(K, x)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPACES), st.data())
def test_region_queries_match_scan(space, data):
    K = CompactSet.from_ifs(*space)
    S = data.draw(regions(K))
    assert S.is_empty() == is_empty_ref(S)
    if not S.is_empty():
        assert S.infimum() == infimum_ref(S)
        assert S.supremum() == supremum_ref(S) == supremum_max_ref(S)


@settings(max_examples=60, deadline=None)
@given(words(), st.data())
def test_image_matches_scan(word, data):
    K, w = word
    S = data.draw(regions(K))
    assert image(w, S) == image_ref(w, S)


@settings(max_examples=60, deadline=None)
@given(letter_words(), st.data())
def test_compose_and_image_match_reference_loops(word, data):
    letters, w = word
    K = w.space
    for g in letters:
        assert compose(g, w) == compose_ref(g, w)
        assert compose(w, g) == compose_ref(w, g)
    assert all(b.image_interval() == tuple(sorted((b.value(b.lo),
                                                   b.value(b.hi))))
               for b in w.branches)
    for S in (Region.whole(K), data.draw(regions(K))):
        assert image(w, S) == image_ref(w, S)


@pytest.mark.parametrize("space", SPACES)
def test_uncut_compose_takes_no_preimage(space, monkeypatch):
    # a word that ends with A1^-1 maps each branch source into one source
    # of A1, so A1 after it cuts no branch
    a1, a2, a1i, a2i = _letters(*space)
    src = [(b.lo, b.hi) for b in a1.branches]
    for w in (a1i, compose(a1i, a2), compose(a1i, compose(a2i, a1)),
              compose(a1i, compose(a2, compose(a2, a1)))):
        assert all(any(lo <= b.image_interval()[0] and
                       b.image_interval()[1] <= hi for lo, hi in src)
                   for b in w.branches)
        expected = compose_ref(a1, w)
        calls = []
        preimage = Branch.preimage
        monkeypatch.setattr(Branch, "preimage",
                            lambda b, y: calls.append(y) or preimage(b, y))
        assert compose(a1, w) == expected
        monkeypatch.undo()
        assert calls == []


@settings(max_examples=25, deadline=None)
@given(words(), st.data())
def test_preimage_cells_match_scan(word, data):
    K, w = word
    cells = measure_cells(K, data.draw(st.integers(1, 5)))
    assert preimage_cell_indices(w, cells) == preimage_ref(w, cells)


@settings(max_examples=40, deadline=None)
@given(words(max_size=8))
def test_break_pairs_match_three_query_loop(word):
    K, w = word
    assert break_pairs(w) == break_pairs_ref(w)


@pytest.mark.parametrize("space", SPACES)
def test_break_pairs_expand_each_point_once(space, monkeypatch):
    # one expansion per interior branch boundary and one per candidate gap
    # (its image pair through gaps_at); asking for the gap containing a
    # boundary and then for the gaps on either side expands it three times
    a1, a2, a1i, a2i = _letters(*space)
    for w in (a1, a2i, compose(a1, a2), compose(a2, compose(a1i, a2)),
              compose(a1, compose(a1, compose(a2i, a1)))):
        bounds, candidates = break_candidates_ref(w)
        calls = []
        expand = Ifs._expand
        monkeypatch.setattr(Ifs, "_expand",
                            lambda ifs, t: calls.append(t) or expand(ifs, t))
        break_pairs(w)
        monkeypatch.undo()
        assert candidates and len(calls) <= len(bounds) + len(candidates)


@pytest.mark.parametrize("space", SPACES)
def test_queries_on_pieces_touching_k(space):
    # pieces between neighbouring ends of K's intervals and midpoints of its
    # gaps, with every choice of closed ends, meet K in an interval, in one
    # end of an interval of K or of a branch source, or not at all
    K = CompactSet.from_ifs(*space)
    marks = sorted({x for iv in K.intervals for x in iv} |
                   {(a + b) / 2 for a, b in K.bounded_gaps()})
    for a, b in zip(marks, marks[1:]):
        for flags in product((True, False), repeat=2):
            T = Region(K, (Piece(a, b, *flags),))
            assert T.is_empty() == is_empty_ref(T)
            if not T.is_empty():
                assert T.infimum() == infimum_ref(T)
                assert T.supremum() == supremum_ref(T) == supremum_max_ref(T)
            for g in _letters(*space):
                assert image(g, T) == image_ref(g, T)


def test_preimage_cells_subset_checks_are_linear(monkeypatch):
    # only the cells meeting the hull of g^-1(c) are tested for inclusion;
    # testing all pairs of the 128 depth-7 cells makes 128 * 129 checks
    K = CompactSet.from_ifs(TERNARY, 7)
    cells = measure_cells(K, 7)
    calls = []
    subset_of = Region.subset_of
    monkeypatch.setattr(Region, "subset_of",
                        lambda a, b: calls.append(1) or subset_of(a, b))
    rows = preimage_cell_indices(fixture("A1", K), cells)
    assert len(cells) == len(rows) == 128
    assert len(calls) <= 4 * len(cells)
