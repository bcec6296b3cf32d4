"""Exact oracles and metric properties for compact sets and regions."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk.rational import (as_pair, coprime_fraction, pair_key, pair_keys, place_left,
                                 place_right)
from cantorwalk.space import CompactSet, Ifs, Piece, Region, SpaceError, ternary_cantor
from cantorwalk.walk import epsilon_neighborhood

from fixtures import (NEGATIVE, THREE_MAPS, cylinder, decompose_into_cylinders, endpoints,
                      extremes, region, region_diameter, same_set)
from reference import (FPiece, bisect_pairs, bounded_gaps, contains_ref, difference_ref,
                       fractions_of, gaps, gaps_at, in_region, intersect_ref, merge_ref,
                       normalize_ref, on_pieces, union_ref)


# ---------------------------------------------------------------------------
# exact distance references; no CLI run reports them


def delta_m(points) -> F:
    """Minimal pairwise distance among the distinct rationals of points."""
    pts = sorted({F(p) for p in points})
    if len(pts) < 2:
        raise SpaceError("delta_m needs at least two points")
    return min(b - a for a, b in zip(pts, pts[1:]))


def point_to_set_distance(x: F, k: CompactSet) -> F:
    best = None
    for l, r in k.intervals:
        if x < l:
            d = l - x
        elif x > r:
            d = x - r
        else:
            return F(0)
        best = d if best is None else min(best, d)
    return best


def hausdorff_distance(a: CompactSet, b: CompactSet) -> F:
    """Exact Hausdorff distance between two interval unions.

    sup_{x in A} d(x, B) is attained at an endpoint of A or at a midpoint of
    a gap of B lying inside A, so a finite candidate scan is exact.
    """

    def directed(src: CompactSet, dst: CompactSet) -> F:
        candidates = endpoints(src)
        for (l1, r1), (l2, r2) in zip(dst.intervals, dst.intervals[1:]):
            mid = (r1 + l2) / 2
            if contains_ref(src, mid):
                candidates.append(mid)
        return max(point_to_set_distance(x, dst) for x in candidates)

    return max(directed(a, b), directed(b, a))


# denominators small, prime, and large powers of 2 and 3 and their mixes
pair_denominators = st.sampled_from([1, 2, 3, 7, 9, 27, 2 ** 40, 3 ** 25, 2 ** 13 * 3 ** 11,
                                     10 ** 12 + 39]) | st.integers(1, 10 ** 9)
pair_values = st.builds(lambda n, d: as_pair(F(n, d)), st.integers(-10 ** 15, 10 ** 15),
                        pair_denominators)


@settings(max_examples=300, deadline=None)
@given(st.lists(pair_values, max_size=24), st.lists(st.integers(0, 23), max_size=8),
       st.lists(pair_values, max_size=4))
def test_keyed_bisection_matches_cross_multiplication(values, repeats, others):
    # sorted columns with repeated values, asked at each row value, just
    # past and before it, halfway between neighbours and at other pairs
    col = sorted(values + [values[i % len(values)] for i in repeats if values], key=pair_key)
    eps = F(1, 2 * math.lcm(*(d for _, d in col)) + 1)
    vals = [coprime_fraction(*p) for p in col]
    queries = [as_pair(v + e) for v in vals for e in (0, eps, -eps)] + others + [
        as_pair((u + v) / 2) for u, v in zip(vals, vals[1:])]
    mk, rows = pair_keys(col), [(p,) for p in col]
    for x in queries:
        assert place_right(mk, x) == bisect_pairs(rows, 0, x)
        assert place_left(mk, x) == bisect_pairs(rows, 0, x, False)


def test_normalization():
    assert CompactSet.from_intervals([(0, 1)]).intervals == ((F(0), F(1)),)
    # touching intervals merge
    assert CompactSet.from_intervals([(0, F(1, 3)), (F(1, 3), 1)]).intervals == \
        ((F(0), F(1)),)
    # unsorted input is sorted
    assert CompactSet.from_intervals([(F(2, 3), 1), (0, F(1, 3))]).intervals == \
        ((F(0), F(1, 3)), (F(2, 3), F(1)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4)), min_size=1,
                max_size=8))
def test_normalization_matches_sort_and_merge(specs):
    # points, touching, nested and overlapping intervals over a coarse grid
    pairs = [(F(a, 4), F(a + b, 4)) for a, b in specs]
    assert CompactSet.from_intervals(pairs).intervals == merge_ref(pairs)


def test_normalization_rejects_reversed_and_empty_lists():
    with pytest.raises(SpaceError, match="reversed"):
        CompactSet.from_intervals([(1, 0)])
    with pytest.raises(SpaceError, match="empty interval list"):
        CompactSet.from_intervals([])


def test_ternary_cantor_depths():
    assert ternary_cantor(0).intervals == ((F(0), F(1)),)
    assert ternary_cantor(1).intervals == ((F(0), F(1, 3)), (F(2, 3), F(1)))
    assert ternary_cantor(2).intervals == (
        (F(0), F(1, 9)), (F(2, 9), F(1, 3)), (F(2, 3), F(7, 9)), (F(8, 9), F(1)))


def test_ternary_cantor_is_built_once_per_depth():
    # every scenario parse asks for the set again; a refused depth raises
    # on each call and leaves the cache as it was
    assert ternary_cantor(3) is ternary_cantor(3)
    size = ternary_cantor.cache_info().currsize
    for depth, message in [(17, "more than 65536 intervals"), (-1, "nonnegative")] * 2:
        with pytest.raises(SpaceError, match=message):
            ternary_cantor(depth)
    assert ternary_cantor.cache_info().currsize == size


def test_gaps():
    assert bounded_gaps(ternary_cantor(1)) == [(F(1, 3), F(2, 3))]
    assert bounded_gaps(ternary_cantor(2)) == [
        (F(1, 9), F(2, 9)), (F(1, 3), F(2, 3)), (F(7, 9), F(8, 9))]
    assert bounded_gaps(CompactSet.from_intervals([(0, 1)])) == []
    # unbounded gaps flank every set
    kinds = [g.kind for g in gaps(ternary_cantor(1))]
    assert kinds[0] == "left-unbounded" and kinds[-1] == "right-unbounded"


def test_is_gap_pair_sees_limit_set():
    K = ternary_cantor(2)
    assert (F(1, 3), F(2, 3)) in gaps_at(K, F(1, 3))
    # finer than the stored depth, still a gap of the limit set
    assert (F(1, 27), F(2, 27)) in gaps_at(K, F(1, 27))
    assert (F(0), F(1)) not in gaps_at(K, F(0))


def test_epsilon_neighborhood_strictness():
    K = ternary_cantor(2)
    nb = epsilon_neighborhood([0], F(1, 9), K)
    assert not in_region(nb, F(1, 9))  # d = 1/9 is not < 1/9
    assert in_region(nb, 0)
    allk = epsilon_neighborhood([0, 1], 2, K)
    assert Region.whole(K).subset_of(allk)
    with pytest.raises(SpaceError):
        epsilon_neighborhood([F(0)], 0, K)


def test_hausdorff_oracles():
    a = CompactSet.from_intervals([(0, 1)])
    b = CompactSet.from_intervals([(0, 0)])
    assert hausdorff_distance(a, b) == 1
    assert hausdorff_distance(a, a) == 0
    pts_a = CompactSet.from_intervals([(0, 0), (1, 1)])
    pts_b = CompactSet.from_intervals([(F(1, 3), F(1, 3)), (F(2, 3), F(2, 3))])
    assert hausdorff_distance(pts_a, pts_b) == F(1, 3)


def test_delta_m():
    assert delta_m([0, F(1, 3), 1]) == F(1, 3)
    assert delta_m([0, F(1, 9), F(2, 9), 1]) == F(1, 9)
    # duplicates collapse; a single point has no pairwise distance
    with pytest.raises(SpaceError):
        delta_m([0, 0])
    # unsorted input
    assert delta_m([F(1), F(0), F(1, 3)]) == F(1, 3)


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
    a, b = CompactSet.from_intervals(ia), CompactSet.from_intervals(ib)
    d = hausdorff_distance(a, b)
    assert d == hausdorff_distance(b, a)
    assert d >= 0
    assert (d == 0) == (a.intervals == b.intervals)


@settings(max_examples=40, deadline=None)
@given(intervals_st, intervals_st, intervals_st)
def test_hausdorff_triangle(ia, ib, ic):
    a, b, c = (CompactSet.from_intervals(x) for x in (ia, ib, ic))
    assert hausdorff_distance(a, c) <= \
        hausdorff_distance(a, b) + hausdorff_distance(b, c)


def _rand_region(K, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, 27), st.integers(0, 27)), max_size=3))
    pieces = [(F(min(p), 27), F(max(p) + 1, 27)) for p in pairs]
    return region(K, pieces)


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
    assert same_set(lhs, rhs)
    # complement is an involution modulo K
    assert same_set(W.difference(W.difference(A)), A)
    assert A.difference(B).disjoint_from(B)


# -- flagged regions against a point oracle and the pairwise reference ------
#
# The reference is the region algebra of tests/reference.py: pairwise piece
# intersection, a complement between the pieces' ends, and one sort and
# merge.  Serialized regions hold the piece tuples, so the sweep must give
# exactly the same ones.


def _rand_flagged(rng, grid):
    """A bag of up to four FPieces with ends on the grid: closed, open and
    half-open ones, single points, and empty ones (lo == hi, not closed)."""
    pieces = []
    for _ in range(rng.randint(0, 4)):
        lo, hi = sorted(rng.choice(grid) for _ in range(2))
        if rng.random() < 0.2:
            hi = lo
        pieces.append(FPiece(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return pieces


# ternary depths 3 and 5 on a grid reaching past the hull [0, 1], and a
# plain set with its gaps, on a grid reaching past its hull [0, 6]
FLAGGED_SPACES = [
    (0, ternary_cantor(3), [F(k, 27) for k in range(-3, 31)]),
    (1, ternary_cantor(5), [F(k, 81) for k in range(-4, 86, 2)]),
    (2, CompactSet.from_intervals([(0, 1), (2, 3), (4, 6)]),
     [F(k, 2) for k in range(-2, 15)]),
]


@pytest.mark.parametrize("seed, K, grid", FLAGGED_SPACES,
                         ids=["ternary3", "ternary5", "plain"])
def test_flagged_region_operations(seed, K, grid):
    W = Region.whole(K)
    fw, k_ends = fractions_of(W), set(endpoints(K))
    rng = random.Random(seed)
    for _ in range(600):
        bag_a, bag_b = _rand_flagged(rng, grid), _rand_flagged(rng, grid)
        A, B = (Region.from_pieces(K, [Piece(*p) for p in bag]) for bag in (bag_a, bag_b))
        fa, fb = fractions_of(A), fractions_of(B)
        assert fa == normalize_ref(bag_a)
        assert fb == normalize_ref(bag_b)
        union, inter = fractions_of(A.union(B)), fractions_of(A.intersect(B))
        diff, off_b = fractions_of(A.difference(B)), W.difference(B)
        # the piece tuples of the pairwise reference, exactly
        assert union == union_ref(fa, fb)
        assert inter == intersect_ref(fa, fb)
        assert fractions_of(off_b) == difference_ref(fw, fb)
        # every end and midpoint decides membership on the line and on K
        ends = sorted({x for p in fa + fb + fw for x in (p.lo, p.hi)} | k_ends)
        pts = ends + [(u + v) / 2 for u, v in zip(ends, ends[1:])]
        pts += [ends[0] - 1, ends[-1] + 1]
        a_on_k = a_not_b_on_k = both_on_k = False
        for x in pts:
            a, b = on_pieces(fa, x), on_pieces(fb, x)
            assert on_pieces(union, x) == (a or b)
            assert on_pieces(inter, x) == (a and b)
            assert on_pieces(diff, x) == (a and not b)
            on_k = contains_ref(K, x)
            assert in_region(off_b, x) == (on_k and not b)
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
    r = region(K, [(F(1, 9), F(1, 9) + F(1, 100))])
    assert not r.is_empty()
    assert region_diameter(r) == 0
    assert extremes(r) == (F(1, 9), F(1, 9))


@pytest.mark.parametrize("symbols", [("L", "RR"), ("", "R"), ("0", 2)])
def test_ifs_symbols_are_single_characters(symbols):
    # an address reads one character per level, so "RR" would name no map
    with pytest.raises(SpaceError, match="not all single characters"):
        Ifs((F(1, 3), F(1, 3)), (F(0), F(2, 3)), symbols)


def test_region_empty_queries():
    K = ternary_cantor(1)
    # lives entirely inside the middle gap
    r = region(K, [(F(2, 5), F(3, 5))])
    assert r.is_empty()


def test_region_extremes_skip_points_a_piece_does_not_hold():
    # an open end where an interval of K starts or stops is no point of the
    # region: depth-1 K is [0, 1/3] and [2/3, 1]
    K = ternary_cantor(1)
    r = epsilon_neighborhood([F(1, 2)], F(1, 6), K)
    assert r.is_empty()
    r = Region(K, (Piece(F(1, 2), F(2, 3), True, False),
                   Piece(F(3, 4), F(1), True, True)))
    assert extremes(r)[0] == F(3, 4)
    r = Region(K, (Piece(F(0), F(1, 4), True, True),
                   Piece(F(1, 3), F(1, 2), False, True)))
    assert extremes(r)[1] == F(1, 4)


def test_cylinders():
    K = ternary_cantor(3)
    assert K.ifs.cylinder("02") == ((2, 9), (1, 3))
    assert K.ifs.cylinder("") == ((0, 1), (1, 1))
    assert decompose_into_cylinders(K, F(0), F(1, 3)) == [("0", F(0), F(1, 3))]
    assert decompose_into_cylinders(K, F(0), F(1)) == [("", F(0), F(1))]
    assert decompose_into_cylinders(K, F(2, 9), F(7, 9)) == [
        ("02", F(2, 9), F(1, 3)), ("20", F(2, 3), F(7, 9))]
    # a gap end inside the interval: the cylinders around it are split
    assert decompose_into_cylinders(K, F(1, 4), F(1)) is None
    assert decompose_into_cylinders(K, F(1, 3), F(1)) is None
    # cylinders far deeper than the stored depth
    assert decompose_into_cylinders(K, F(2, 3 ** 25), F(1, 3)) == [
        ("0" * k + "2", F(2, 3 ** (k + 1)), F(1, 3 ** k)) for k in range(24, 0, -1)]


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
    assert gaps_at(TERNARY, x) == ()  # touches no gap
    assert ternary_cantor(3).contains_limit_point(x)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([TERNARY, UNEQUAL]), st.integers(1, 4), st.data())
def test_address_engine_against_depth_d_sets(ifs, d, data):
    K = CompactSet.from_ifs(ifs, d)
    gaps = bounded_gaps(K)
    ends = endpoints(K)
    for lo, hi in gaps:
        # each end of a gap touches that gap only, and so does its inside
        assert gaps_at(ifs, lo) == gaps_at(ifs, hi) == ((lo, hi),)
        t = lo + (hi - lo) * data.draw(st.fractions(0, 1).filter(
            lambda q: 0 < q < 1))
        assert gaps_at(ifs, t) == ((lo, hi),)
        assert not ifs.contains_limit_point(t)
    # endpoints of depth-d cells are limit points; a pair of them bounds a
    # gap of the limit set exactly when it bounds a gap of the depth-d set
    u, v = sorted(data.draw(st.lists(st.sampled_from(ends), min_size=2,
                                     max_size=2, unique=True)))
    assert ifs.contains_limit_point(u)
    assert not any(lo < u < hi for lo, hi in gaps_at(ifs, u))
    assert ((u, v) in gaps_at(ifs, u)) == ((u, v) in gaps)
    assert (v, u) not in gaps_at(ifs, v)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([TERNARY, UNEQUAL]), st.integers(1, 4), st.data())
def test_gaps_at_is_the_three_queries_in_one(ifs, d, data):
    # every endpoint of a depth-d cell, and a random interior point of every
    # depth-d gap; the gaps whose closure holds such a point (the gap that
    # contains it, or the gaps that end at it) are gaps of the depth-d set,
    # which the plain set finds by bisection
    K = CompactSet.from_ifs(ifs, d)
    plain = CompactSet.from_intervals(K.intervals)
    points = endpoints(K) + [
        lo + (hi - lo) * data.draw(st.fractions(0, 1).filter(lambda q: 0 < q < 1))
        for lo, hi in bounded_gaps(K)]
    for t in points:
        expected = tuple(g for g in bounded_gaps(K) if g[0] <= t <= g[1])
        assert gaps_at(ifs, t) == gaps_at(K, t) == gaps_at(plain, t) == expected


def test_gaps_at_deep_and_plain():
    # the scale of a gap 24 levels down is taken only at that level
    t = F(2, 3 ** 25)
    assert gaps_at(TERNARY, t) == ((F(1, 3 ** 25), t),)  # on its left only
    assert gaps_at(TERNARY, F(3, 2 * 3 ** 25)) == ((F(1, 3 ** 25), t),)
    assert gaps_at(TERNARY, F(-1)) == gaps_at(TERNARY, F(1, 4)) == ()
    # a one-point interval of a plain set touches a gap on each side
    K = CompactSet.from_intervals([(0, 1), (2, 2), (3, 4)])
    assert gaps_at(K, F(2)) == ((1, 2), (2, 3))
    assert gaps_at(K, F(3, 2)) == ((1, 2),)
    assert gaps_at(K, F(1, 2)) == gaps_at(K, F(5)) == ()
    assert (F(2), F(3)) in gaps_at(K, F(2))
    assert (F(1), F(3)) not in gaps_at(K, F(1))


# -- the integer expansion against a Fraction reference ----------------------


def children(ifs: Ifs, lo: F, hi: F) -> list[tuple[F, F]]:
    """Ifs._child_pairs on Fractions."""
    return [(coprime_fraction(*a), coprime_fraction(*b))
            for a, b in ifs._child_pairs(as_pair(lo), as_pair(hi))]


def expand_ref(ifs, t):
    """The expansion loop in Fraction arithmetic: (levels, gap) with every
    local coordinate a Fraction."""
    levels, seen = [], set()
    lo, hi = cylinder(ifs, "")
    if not lo <= t <= hi:
        return levels, None
    kids, y = children(ifs, lo, hi), t
    while (key := (y.numerator, y.denominator)) not in seen:
        seen.add(key)
        for i, (clo, chi) in enumerate(kids):
            if y <= chi:
                break
        if y < clo:
            return levels, (len(levels), i - 1, y)
        levels.append((i, y))
        y = (y - ifs.offsets[i]) / ifs.ratios[i]
    return levels, None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([TERNARY, UNEQUAL, THREE_MAPS, NEGATIVE]), st.data())
def test_integer_expansion_matches_fraction_loop(ifs, data):
    # cell ends, gap points and arbitrary rationals in and around the hull
    K = CompactSet.from_ifs(ifs, data.draw(st.integers(0, 4)))
    lo, hi = cylinder(ifs, "")
    t = data.draw(st.one_of(
        st.sampled_from(endpoints(K)),
        st.fractions(lo - 1, hi + 1, max_denominator=10 ** 4),
        st.builds(lambda a, b: a + (b - a) / 7, st.sampled_from(endpoints(K)),
                  st.sampled_from(endpoints(K)))))
    levels, gap = ifs._expand((t.numerator, t.denominator))
    ref_levels, ref_gap = expand_ref(ifs, t)
    # the same levels and gap point, as reduced pairs with positive
    # denominators, so the same number of levels before a repeat
    assert levels == [(i, (y.numerator, y.denominator)) for i, y in ref_levels]
    assert gap == (ref_gap and (*ref_gap[:2], (ref_gap[2].numerator, ref_gap[2].denominator)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([TERNARY, UNEQUAL, THREE_MAPS, NEGATIVE]), st.data())
def test_cylinders_match_the_map_composition(ifs, data):
    # I_w = phi_{w0}(phi_{w1}(... hull)), the maps applied innermost first;
    # its children are the I_{w s}, it is one cylinder of the limit set, and
    # the depth-d cylinders in address order are intervals_at(d)
    w = data.draw(st.text(alphabet="".join(ifs.symbols), max_size=6))
    lo, hi = cylinder(ifs, "")
    for sym in reversed(w):
        i = ifs.symbols.index(sym)
        r, o = ifs.ratios[i], ifs.offsets[i]
        lo, hi = r * lo + o, r * hi + o
    assert ifs.cylinder(w) == (as_pair(lo), as_pair(hi))
    assert ifs._child_pairs(*ifs.cylinder(w)) == [ifs.cylinder(w + s) for s in ifs.symbols]
    assert decompose_into_cylinders(CompactSet.from_ifs(ifs, 0), lo, hi) == [(w, lo, hi)]
    d = data.draw(st.integers(0, 3))
    assert ifs.intervals_at(d) == [ifs.cylinder("".join(a))
                                   for a in itertools.product(ifs.symbols, repeat=d)]


def decompose_ref(ifs, lo, hi):
    """The cylinder decomposition as a stack descent from the hull alone, on
    Fractions: every cylinder holding lo or hi without lying inside [lo, hi]
    is split, down to one level past the longer address expansion."""
    max_depth = 1 + max(len(expand_ref(ifs, x)[0]) for x in (lo, hi))
    parts, stack = [], [("", *cylinder(ifs, ""))]
    while stack:
        addr, a, b = stack.pop()
        if hi < a or b < lo:
            continue
        if lo <= a and b <= hi:
            parts.append((addr, a, b))
        elif len(addr) >= max_depth:
            return None
        else:
            stack.extend((addr + s, *c) for s, c in zip(
                ifs.symbols[::-1], children(ifs, a, b)[::-1]))
    return parts


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([TERNARY, UNEQUAL, THREE_MAPS, NEGATIVE]), st.data())
def test_cylinder_descent_matches_the_stack_descent(ifs, data):
    # intervals between ends of cylinders up to depth 4 (single cylinders,
    # unions of neighbours, intervals ending in gaps or reversed), arbitrary
    # rationals and single cylinders down to depth 12, as deep as the
    # sources and images of composed words reach: descending into the one
    # child that holds the interval answers as the plain stack descent does
    cells = CompactSet.from_ifs(ifs, data.draw(st.integers(0, 4))).intervals
    lo, hi = cylinder(ifs, "")
    ends = st.one_of(st.sampled_from([x for c in cells for x in c]),
                     st.fractions(lo - 1, hi + 1, max_denominator=3 ** 5))
    kind = data.draw(st.sampled_from(["cell", "ends", "deep"]))
    if kind == "cell":
        a, b = data.draw(st.sampled_from(cells))
    elif kind == "ends":
        a, b = data.draw(ends), data.draw(ends)
    else:
        w = "".join(data.draw(st.lists(st.sampled_from(ifs.symbols), min_size=5, max_size=12)))
        a, b = cylinder(ifs, w)
        # the descent answers a single cylinder alone, expanding no address
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Ifs, "_expand", None)
            assert decompose_into_cylinders(CompactSet.from_ifs(ifs, 0), a, b) == [(w, a, b)]
    assert decompose_into_cylinders(CompactSet.from_ifs(ifs, 0), a, b) == decompose_ref(ifs, a, b)
