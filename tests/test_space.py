"""Exact oracles and metric properties for compact sets and regions."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk.space import (CompactSet, Ifs, Piece, PointSet, Region, SpaceError,
                              delta_m, epsilon_neighborhood,
                              hausdorff_distance, make_compact_set,
                              point_to_set_distance, ternary_cantor)


def test_normalization():
    assert make_compact_set([(0, 1)]).intervals == ((F(0), F(1)),)
    # touching intervals merge
    assert make_compact_set([(0, F(1, 3)), (F(1, 3), 1)]).intervals == \
        ((F(0), F(1)),)
    # unsorted input is sorted
    assert make_compact_set([(F(2, 3), 1), (0, F(1, 3))]).intervals == \
        ((F(0), F(1, 3)), (F(2, 3), F(1)))


def test_ternary_cantor_depths():
    assert ternary_cantor(0).intervals == ((F(0), F(1)),)
    assert ternary_cantor(1).intervals == ((F(0), F(1, 3)), (F(2, 3), F(1)))
    assert ternary_cantor(2).intervals == (
        (F(0), F(1, 9)), (F(2, 9), F(1, 3)), (F(2, 3), F(7, 9)), (F(8, 9), F(1)))


def test_gaps():
    assert ternary_cantor(1).bounded_gaps() == [(F(1, 3), F(2, 3))]
    assert ternary_cantor(2).bounded_gaps() == [
        (F(1, 9), F(2, 9)), (F(1, 3), F(2, 3)), (F(7, 9), F(8, 9))]
    assert make_compact_set([(0, 1)]).bounded_gaps() == []
    # unbounded gaps flank every set
    kinds = [g.kind for g in ternary_cantor(1).gaps()]
    assert kinds[0] == "left-unbounded" and kinds[-1] == "right-unbounded"


def test_is_gap_pair_sees_limit_set():
    K = ternary_cantor(2)
    assert (F(1, 3), F(2, 3)) in K.gaps_at(F(1, 3))
    # finer than the stored depth, still a gap of the limit set
    assert (F(1, 27), F(2, 27)) in K.gaps_at(F(1, 27))
    assert (F(0), F(1)) not in K.gaps_at(F(0))


def test_epsilon_neighborhood_strictness():
    K = ternary_cantor(2)
    nb = epsilon_neighborhood(PointSet.of(K, [0]), F(1, 9), K)
    assert not nb.contains(F(1, 9))  # d = 1/9 is not < 1/9
    assert nb.contains(0)
    allk = epsilon_neighborhood(PointSet.of(K, [0, 1]), 2, K)
    assert Region.whole(K).subset_of(allk)
    with pytest.raises(SpaceError):
        epsilon_neighborhood([F(0)], 0, K)


def test_hausdorff_oracles():
    a = make_compact_set([(0, 1)])
    b = make_compact_set([(0, 0)])
    assert hausdorff_distance(a, b) == 1
    assert hausdorff_distance(a, a) == 0
    pts_a = make_compact_set([(0, 0), (1, 1)])
    pts_b = make_compact_set([(F(1, 3), F(1, 3)), (F(2, 3), F(2, 3))])
    assert hausdorff_distance(pts_a, pts_b) == F(1, 3)


def test_delta_m():
    K = ternary_cantor(3)
    assert delta_m(PointSet.of(K, [0, F(1, 3), 1])) == F(1, 3)
    assert delta_m(PointSet.of(K, [0, F(1, 9), F(2, 9), 1])) == F(1, 9)
    # duplicates collapse; a single point has no pairwise distance
    with pytest.raises(SpaceError):
        delta_m(PointSet.of(K, [0, 0]))
    # unsorted input
    assert delta_m(PointSet.of(K, [F(1), F(0), F(1, 3)])) == F(1, 3)


def test_point_to_set_distance():
    K = ternary_cantor(1)
    assert point_to_set_distance(F(1, 2), K) == F(1, 6)
    assert point_to_set_distance(F(1, 4), K) == 0


intervals_st = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 6)).map(
        lambda t: (F(t[0], 30), F(t[0], 30) + F(t[1], 30))),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(intervals_st, intervals_st)
def test_hausdorff_symmetry_and_identity(ia, ib):
    a, b = make_compact_set(ia), make_compact_set(ib)
    d = hausdorff_distance(a, b)
    assert d == hausdorff_distance(b, a)
    assert d >= 0
    assert (d == 0) == (a.intervals == b.intervals)


@settings(max_examples=40, deadline=None)
@given(intervals_st, intervals_st, intervals_st)
def test_hausdorff_triangle(ia, ib, ic):
    a, b, c = (make_compact_set(x) for x in (ia, ib, ic))
    assert hausdorff_distance(a, c) <= \
        hausdorff_distance(a, b) + hausdorff_distance(b, c)


def _rand_region(K, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, 27), st.integers(0, 27)), max_size=3))
    pieces = [(F(min(p), 27), F(max(p) + 1, 27)) for p in pairs]
    return Region.from_intervals(K, pieces)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_region_boolean_laws(data):
    K = ternary_cantor(3)
    A = _rand_region(K, data)
    B = _rand_region(K, data)
    W = Region.whole(K)
    assert A.intersect(B).subset_of(A)
    assert A.subset_of(A.union(B))
    # de Morgan on K
    lhs = W.difference(A.union(B))
    rhs = W.difference(A).intersect(W.difference(B))
    assert lhs.same_set(rhs)
    # complement is an involution modulo K
    assert W.difference(W.difference(A)).same_set(A)
    assert A.difference(B).disjoint_from(B)


# -- flagged regions against a point oracle and the pairwise reference ------
#
# The reference is the region algebra these operations replaced: pairwise
# piece intersection, a complement within the hull, and one sort and merge.
# Serialized regions hold the piece tuples, so the sweep must give exactly
# the same ones.


def _valid_ref(p):
    if p.lo < p.hi:
        return True
    return p.lo == p.hi and p.lo_closed and p.hi_closed


def _normalize_ref(pieces):
    ps = sorted((p for p in pieces if _valid_ref(p)),
                key=lambda p: (p.lo, not p.lo_closed))
    out = []
    for p in ps:
        if out:
            q = out[-1]
            if p.lo < q.hi or (p.lo == q.hi and (q.hi_closed or p.lo_closed)):
                hi, hi_closed = max((q.hi, q.hi_closed), (p.hi, p.hi_closed),
                                    key=lambda t: (t[0], t[1]))
                out[-1] = Piece(q.lo, hi, q.lo_closed, hi_closed)
                continue
        out.append(p)
    return tuple(out)


def _complement_ref(pieces, lo, hi):
    out = []
    cur, cur_closed = lo, True
    for p in pieces:
        if p.hi < lo or p.lo > hi:
            continue
        seg = Piece(cur, min(p.lo, hi), cur_closed, not p.lo_closed)
        if _valid_ref(seg) and seg.lo <= hi:
            out.append(Piece(seg.lo, min(seg.hi, hi), seg.lo_closed,
                             seg.hi_closed if seg.hi <= hi else True))
        cur, cur_closed = p.hi, not p.hi_closed
        if cur > hi:
            return out
    tail = Piece(cur, hi, cur_closed, True)
    if _valid_ref(tail):
        out.append(tail)
    return out


def _intersect_piece_ref(a, b):
    if a.lo > b.lo or (a.lo == b.lo and (b.lo_closed or not a.lo_closed)):
        lo, lo_closed = a.lo, a.lo_closed and (b.lo < a.lo or b.lo_closed)
    else:
        lo, lo_closed = b.lo, b.lo_closed and (a.lo < b.lo or a.lo_closed)
    if a.hi < b.hi or (a.hi == b.hi and (b.hi_closed or not a.hi_closed)):
        hi, hi_closed = a.hi, a.hi_closed and (b.hi > a.hi or b.hi_closed)
    else:
        hi, hi_closed = b.hi, b.hi_closed and (a.hi > b.hi or a.hi_closed)
    p = Piece(lo, hi, lo_closed, hi_closed)
    return p if _valid_ref(p) else None


def _intersect_ref(a, b):
    cut = (_intersect_piece_ref(p, q) for p in a for q in b)
    return _normalize_ref(c for c in cut if c is not None)


def _on_pieces(pieces, x):
    """Point membership in the union of the pieces, on the line."""
    return any(p.lo < x < p.hi or x == p.lo and p.lo_closed
               or x == p.hi and p.hi_closed for p in pieces)


def _rand_flagged(rng, grid):
    """A bag of up to four pieces with ends on the grid: closed, open and
    half-open ones, single points, and empty ones (lo == hi, not closed)."""
    pieces = []
    for _ in range(rng.randint(0, 4)):
        lo, hi = sorted(rng.choice(grid) for _ in range(2))
        if rng.random() < 0.2:
            hi = lo
        pieces.append(Piece(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return pieces


# ternary depths 3 and 5 on a grid reaching past the hull [0, 1], and a
# plain set with its gaps, on a grid reaching past its hull [0, 6]
FLAGGED_SPACES = [
    (0, ternary_cantor(3), [F(k, 27) for k in range(-3, 31)]),
    (1, ternary_cantor(5), [F(k, 81) for k in range(-4, 86, 2)]),
    (2, make_compact_set([(0, 1), (2, 3), (4, 6)]),
     [F(k, 2) for k in range(-2, 15)]),
]


@pytest.mark.parametrize("seed, K, grid", FLAGGED_SPACES,
                         ids=["ternary3", "ternary5", "plain"])
def test_flagged_region_operations(seed, K, grid):
    W = Region.whole(K)
    rng = random.Random(seed)
    for _ in range(600):
        bag_a, bag_b = _rand_flagged(rng, grid), _rand_flagged(rng, grid)
        A, B = Region.from_pieces(K, bag_a), Region.from_pieces(K, bag_b)
        assert A.pieces == _normalize_ref(bag_a)
        assert B.pieces == _normalize_ref(bag_b)
        union, inter = A.union(B), A.intersect(B)
        diff, off_b = A.difference(B), W.difference(B)
        # the piece tuples of the pairwise reference, exactly
        assert union.pieces == _normalize_ref(A.pieces + B.pieces)
        assert inter.pieces == _intersect_ref(A.pieces, B.pieces)
        lo, hi = K.hull
        assert off_b.pieces == _intersect_ref(
            W.pieces, _normalize_ref(_complement_ref(B.pieces, lo, hi)))
        # every end and midpoint decides membership on the line and on K
        ends = sorted({x for p in A.pieces + B.pieces + W.pieces
                       for x in (p.lo, p.hi)} | set(K.endpoints()))
        pts = ends + [(u + v) / 2 for u, v in zip(ends, ends[1:])]
        pts += [ends[0] - 1, ends[-1] + 1]
        a_on_k = a_not_b_on_k = both_on_k = False
        for x in pts:
            a, b = _on_pieces(A.pieces, x), _on_pieces(B.pieces, x)
            assert _on_pieces(union.pieces, x) == (a or b)
            assert _on_pieces(inter.pieces, x) == (a and b)
            assert _on_pieces(diff.pieces, x) == (a and not b)
            on_k = K.contains(x)
            assert off_b.contains(x) == (on_k and not b)
            a_on_k = a_on_k or on_k and a
            a_not_b_on_k = a_not_b_on_k or on_k and a and not b
            both_on_k = both_on_k or on_k and a and b
        assert A.is_empty() == (not a_on_k)
        assert A.subset_of(B) == (not a_not_b_on_k)
        assert A.disjoint_from(B) == (not both_on_k)
        assert W.subset_of(W.difference(A).union(A))


def test_region_isolated_point_diameter():
    # a region meeting K in one point has zero diameter
    K = ternary_cantor(2)
    r = Region.from_intervals(K, [(F(1, 9), F(1, 9) + F(1, 100))])
    assert not r.is_empty()
    assert r.diameter() == 0
    assert r.infimum() == r.supremum() == F(1, 9)


def test_region_empty_queries():
    K = ternary_cantor(1)
    # lives entirely inside the middle gap
    r = Region.from_intervals(K, [(F(2, 5), F(3, 5))])
    assert r.is_empty()
    with pytest.raises(SpaceError):
        r.infimum()
    with pytest.raises(SpaceError):
        r.supremum()


def test_cylinders():
    K = ternary_cantor(3)
    assert K.cylinder("02") == (F(2, 9), F(1, 3))
    assert K.cylinder("") == (F(0), F(1))
    assert K.decompose_into_cylinders(F(0), F(1, 3)) == ["0"]
    assert K.decompose_into_cylinders(F(0), F(1)) == [""]
    assert K.decompose_into_cylinders(F(2, 9), F(7, 9)) == ["02", "20"]
    # a gap end inside the interval: the cylinders around it are split
    assert K.decompose_into_cylinders(F(1, 4), F(1)) is None
    assert K.decompose_into_cylinders(F(1, 3), F(1)) is None
    # cylinders far deeper than the stored depth
    assert K.decompose_into_cylinders(F(2, 3 ** 25), F(1, 3)) == \
        ["0" * k + "2" for k in range(24, 0, -1)]


# -- the IFS address engine --------------------------------------------------

TERNARY = ternary_cantor(0).ifs
UNEQUAL = Ifs((F(1, 4), F(1, 3)), (F(0), F(2, 3)), ("a", "b"))


def test_long_period_limit_point():
    # purely periodic ternary expansion with a random 1,500-digit period
    rng = random.Random(1500)
    digits = [rng.choice((0, 2)) for _ in range(1500)]
    x = sum(F(d, 3 ** (i + 1)) for i, d in enumerate(digits)) / \
        (1 - F(1, 3 ** 1500))
    assert TERNARY.contains_limit_point(x)
    assert TERNARY.gaps_at(x) == ()  # touches no gap
    assert ternary_cantor(3).contains_limit_point(x)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([TERNARY, UNEQUAL]), st.integers(1, 4), st.data())
def test_address_engine_against_depth_d_sets(ifs, d, data):
    K = CompactSet.from_ifs(ifs, d)
    gaps = K.bounded_gaps()
    ends = K.endpoints()
    for lo, hi in gaps:
        # each end of a gap touches that gap only, and so does its inside
        assert ifs.gaps_at(lo) == ifs.gaps_at(hi) == ((lo, hi),)
        t = lo + (hi - lo) * data.draw(st.fractions(0, 1).filter(
            lambda q: 0 < q < 1))
        assert ifs.gaps_at(t) == ((lo, hi),)
        assert not ifs.contains_limit_point(t)
    # endpoints of depth-d cells are limit points; a pair of them bounds a
    # gap of the limit set exactly when it bounds a gap of the depth-d set
    u, v = sorted(data.draw(st.lists(st.sampled_from(ends), min_size=2,
                                     max_size=2, unique=True)))
    assert ifs.contains_limit_point(u)
    assert not any(lo < u < hi for lo, hi in ifs.gaps_at(u))
    assert ((u, v) in ifs.gaps_at(u)) == ((u, v) in gaps)
    assert (v, u) not in ifs.gaps_at(v)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([TERNARY, UNEQUAL]), st.integers(1, 4), st.data())
def test_gaps_at_is_the_three_queries_in_one(ifs, d, data):
    # every endpoint of a depth-d cell, and a random interior point of every
    # depth-d gap; the gaps whose closure holds such a point (the gap that
    # contains it, or the gaps that end at it) are gaps of the depth-d set,
    # which the plain set finds by bisection
    K = CompactSet.from_ifs(ifs, d)
    plain = CompactSet.from_intervals(K.intervals)
    points = K.endpoints() + [
        lo + (hi - lo) * data.draw(st.fractions(0, 1).filter(lambda q: 0 < q < 1))
        for lo, hi in K.bounded_gaps()]
    for t in points:
        expected = tuple(g for g in K.bounded_gaps() if g[0] <= t <= g[1])
        assert ifs.gaps_at(t) == K.gaps_at(t) == plain.gaps_at(t) == expected


def test_gaps_at_deep_and_plain():
    # the scale of a gap 24 levels down is taken only at that level
    t = F(2, 3 ** 25)
    assert TERNARY.gaps_at(t) == ((F(1, 3 ** 25), t),)  # on its left only
    assert TERNARY.gaps_at(F(3, 2 * 3 ** 25)) == ((F(1, 3 ** 25), t),)
    assert TERNARY.gaps_at(F(-1)) == TERNARY.gaps_at(F(1, 4)) == ()
    # a one-point interval of a plain set touches a gap on each side
    K = make_compact_set([(0, 1), (2, 2), (3, 4)])
    assert K.gaps_at(F(2)) == ((1, 2), (2, 3))
    assert K.gaps_at(F(3, 2)) == ((1, 2),)
    assert K.gaps_at(F(1, 2)) == K.gaps_at(F(5)) == ()
    assert (F(2), F(3)) in K.gaps_at(F(2))
    assert (F(1), F(3)) not in K.gaps_at(F(1))


# -- the integer expansion against a Fraction reference ----------------------


def expand_ref(ifs, t):
    """The expansion loop in Fraction arithmetic: (levels, gap) with every
    local coordinate a Fraction."""
    levels, seen = [], set()
    lo, hi = ifs.hull
    if not lo <= t <= hi:
        return levels, None
    children, y = ifs._children, t
    while (key := (y.numerator, y.denominator)) not in seen:
        seen.add(key)
        for i, (clo, chi) in enumerate(children):
            if y <= chi:
                break
        if y < clo:
            return levels, (len(levels), i - 1, y)
        levels.append((i, y))
        y = (y - ifs.offsets[i]) / ifs.ratios[i]
    return levels, None


def gaps_at_ref(ifs, t):
    levels, gap = expand_ref(ifs, t)
    children = ifs._children
    if gap is None:
        if len(levels) < 2:
            return ()
        k = len(levels) - 2
        i, y = levels[k]
        if y == children[i][0] and i > 0:
            gap = k, i - 1, y
        elif y == children[i][1] and i + 1 < len(children):
            gap = k, i, y
        else:
            return ()
    k, g, y = gap
    scale = F(1)
    for i, _ in levels[:k]:
        scale *= ifs.ratios[i]
    return ((t + scale * (children[g][1] - y),
             t + scale * (children[g + 1][0] - y)),)


THREE_MAPS = Ifs((F(1, 5), F(1, 4), F(1, 5)), (F(0), F(2, 5), F(4, 5)),
                 ("a", "b", "c"))
# hull [-3/2, 1/2]: local coordinates change sign along the expansion
NEGATIVE = Ifs((F(1, 3), F(1, 3)), (F(-1), F(1, 3)), ("l", "r"))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([TERNARY, UNEQUAL, THREE_MAPS, NEGATIVE]), st.data())
def test_integer_expansion_matches_fraction_loop(ifs, data):
    # cell ends, gap points and arbitrary rationals in and around the hull
    K = CompactSet.from_ifs(ifs, data.draw(st.integers(0, 4)))
    lo, hi = ifs.hull
    t = data.draw(st.one_of(
        st.sampled_from(K.endpoints()),
        st.fractions(lo - 1, hi + 1, max_denominator=10 ** 4),
        st.builds(lambda a, b: a + (b - a) / 7, st.sampled_from(K.endpoints()),
                  st.sampled_from(K.endpoints()))))
    levels, gap = ifs._expand(t)
    ref_levels, ref_gap = expand_ref(ifs, t)
    # the same levels, as reduced pairs with positive denominators, so the
    # same number of levels before a repeat
    assert levels == [(i, (y.numerator, y.denominator)) for i, y in ref_levels]
    assert gap == ref_gap
    assert ifs.gaps_at(t) == gaps_at_ref(ifs, t)
