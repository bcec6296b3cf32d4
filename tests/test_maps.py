"""Oracles for piecewise-affine homeomorphisms of the ternary Cantor set."""

import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk.maps import (Branch, BreakPair, MapError, PAHomeo, PrefixTable,
                             apply, break_pairs, break_points, compose, equals,
                             from_prefix_table, image, invert, pa_homeo)
from cantorwalk.space import CompactSet, Ifs, Piece, Region, ternary_cantor

from fixtures import (TABLES, cantor_space, cylinder_region, fixture, identity_map, is_identity,
                      region, regular_on, same_set)
from reference import contains_ref, in_region, reflection_symmetric_ref


# ---------------------------------------------------------------------------
# slope and distortion references; no CLI run reports them


def slope_range(f: PAHomeo, S: Region) -> tuple[F, F]:
    """(min, max) of |slope| over branches meeting S inside K."""
    mags = [abs(b.slope) for b in f.branches
            if S._meets_where((Piece._make(b[:2] + (True, True)),), operator.and_)]
    if not mags:
        raise MapError("region meets no branch")
    return min(mags), max(mags)


def distortion(f: PAHomeo, B: Region) -> F:
    """Sup over max/min of difference quotients |f(x)-f(y)|/|x-y| on B∩K.

    f is affine per branch, so the quotient is monotone in each argument
    between breakpoints and the extremes occur at a finite candidate set:
    region piece endpoints, ambient interval endpoints and branch endpoints
    that belong to B.  Open piece boundaries are included (the quotient
    extends continuously, so the sup is unchanged).
    """
    K = f.space
    cand = set()
    for p in B.pieces:
        for v in (p.lo, p.hi):
            if contains_ref(K, v) and (in_region(B, v) or
                                  any(q.lo <= v <= q.hi for q in B.pieces)):
                cand.add(v)
    for l, r in K.intervals:
        for v in (l, r):
            if in_region(B, v):
                cand.add(v)
    for b in f.branches:
        for v in (b.lo, b.hi):
            if in_region(B, v):
                cand.add(v)
    pts = sorted(cand)
    if len(pts) < 2:
        raise MapError("degenerate region for distortion")
    vals = [apply(f, x) for x in pts]
    qmax = qmin = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            q = abs(vals[j] - vals[i]) / (pts[j] - pts[i])
            qmax = q if qmax is None else max(qmax, q)
            qmin = q if qmin is None else min(qmin, q)
    return qmax / qmin

K = cantor_space(3)
H = fixture("H", K)
R = fixture("R", K)
G3 = fixture("G3", K)
A1 = fixture("A1", K)
A2 = fixture("A2", K)
FIXES = [H, R, G3, A1, A2]


def test_prefix_table_h_branches():
    assert [(b.lo, b.hi, b.slope, b.offset) for b in H.branches] == [
        (F(0), F(1, 3), F(1), F(2, 3)),
        (F(2, 3), F(1), F(1), F(-2, 3))]


def test_prefix_table_r_is_reflection():
    b, = R.branches
    assert (b.slope, b.offset) == (F(-1), F(1))


def test_prefix_table_g3_slopes():
    # 0 -> 00 contracts by 1/3, 20 -> 02 translates, 22 -> 2 expands by 3
    assert [b.slope for b in G3.branches] == [F(1, 3), F(1), F(3)]


def test_apply_oracles():
    assert apply(H, F(1, 3)) == 1
    assert apply(R, 0) == 1
    assert apply(A1, F(1, 4)) == F(1, 4)
    assert apply(invert(A1), F(1, 4)) == F(1, 4)
    with pytest.raises(MapError):
        apply(H, F(1, 2))


def test_image_oracles():
    c22 = cylinder_region(K, "22")
    c02 = cylinder_region(K, "02")
    off = Region.whole(K).difference(c22)
    assert image(A1, off).subset_of(c02)
    left = region(K, [(0, F(1, 3))])
    right = region(K, [(F(2, 3), 1)])
    assert same_set(image(R, left), right)
    assert same_set(image(identity_map(K), left), left)


def test_compose_oracles():
    assert is_identity(compose(H, H))
    assert break_pairs(compose(H, G3)) == [BreakPair(F(7, 9), F(8, 9))]
    for f in FIXES:
        assert is_identity(compose(f, invert(f)))
        assert is_identity(compose(invert(f), f))


def test_invert_oracles():
    assert equals(invert(R), R)
    assert [b.slope for b in invert(G3).branches] == [F(3), F(1), F(1, 3)]


def test_break_pairs_oracles():
    assert break_pairs(G3) == []
    assert break_pairs(H) == [BreakPair(F(1, 3), F(2, 3))]
    assert break_pairs(A1) == [BreakPair(F(7, 9), F(8, 9)),
                               BreakPair(F(25, 27), F(26, 27))]
    assert break_pairs(A2) == [BreakPair(F(1, 27), F(2, 27))]
    assert break_points(H) == [F(1, 3), F(2, 3)]


def test_is_regular_on():
    assert regular_on(G3, 0, 1)
    assert not regular_on(H, F(1, 3), F(2, 3))
    assert regular_on(H, 0, F(1, 3))


def regularity_radius(gens):
    """r0, the least break-pair span of the generators; None if none has one."""
    return min((p.b - p.a for g in gens for p in break_pairs(g)), default=None)


def test_regularity_radius():
    assert regularity_radius([H]) == F(1, 3)
    assert regularity_radius([G3]) is None
    assert regularity_radius([A1, A2]) == F(1, 27)


def test_slope_range():
    c0 = cylinder_region(K, "0")
    assert slope_range(G3, c0) == (F(1, 3), F(1, 3))
    assert slope_range(G3, Region.whole(K)) == (F(1, 3), F(3))
    assert slope_range(A1, cylinder_region(K, "222")) == (F(9), F(9))


def test_distortion():
    assert distortion(G3, cylinder_region(K, "0")) == 1
    assert distortion(G3, Region.whole(K)) == 9
    assert distortion(R, Region.whole(K)) == 1


def test_pa_homeo_rejects_bad_branches():
    with pytest.raises(MapError):
        pa_homeo(K, [])
    with pytest.raises(MapError):
        pa_homeo(K, [Branch(F(0), F(1), F(0), F(0))])
    with pytest.raises(MapError):
        # overlapping sources
        pa_homeo(K, [Branch(F(0), F(2, 3), F(1), F(0)),
                     Branch(F(1, 3), F(1), F(1), F(0))])
    with pytest.raises(MapError):
        # not a bijection of the limit set: only covers the left half
        pa_homeo(K, [Branch(F(0), F(1, 3), F(1), F(0))])


def test_images_with_ends_off_their_cylinder_are_refused():
    """An image of a source cylinder that decomposes into one cylinder with
    other ends is refused by the image antichain check alone.  The limit
    points in such an image interval are those of its cylinder, so an image
    end that is not a cylinder end is not a limit point; the antichain
    check needs every image end to be a hull end or an end of a gap, and
    both are limit points."""
    K2 = ternary_cantor(2)
    with pytest.raises(MapError, match="do not reach the extremes"):
        # [0, 1/3] goes onto [1/6, 1/2], whose limit points are those of 02
        pa_homeo(K2, [Branch(F(0), F(1, 3), F(1), F(1, 6)),
                      Branch(F(2, 3), F(1), F(1), F(0))])
    with pytest.raises(MapError, match="do not tile the limit set"):
        # [2/9, 1/3] goes onto [5/18, 7/18], whose limit points are those of 022
        pa_homeo(K2, [Branch(F(0), F(1, 9), F(1), F(0)),
                      Branch(F(2, 9), F(1, 3), F(1), F(1, 18)),
                      Branch(F(2, 3), F(1), F(1), F(0))])


def test_sources_with_ends_off_the_limit_set_are_refused():
    # H with sources that meet at 1/2, in the gap (1/3, 2/3): the cylinders
    # and their images are those of H, but break pairs are read off
    # neighbouring sources, so a source must start and end at limit points
    with pytest.raises(MapError, match=r"^branch source \[0, 1/2\] does not "
                       "end on the limit set$"):
        pa_homeo(K, [Branch(F(0), F(1, 2), F(1), F(2, 3)),
                     Branch(F(1, 2), F(1), F(1), F(-2, 3))])


def test_prefix_table_validation():
    with pytest.raises(MapError):
        # source addresses do not cover mass 1
        from_prefix_table(PrefixTable((("0", "0", 1),)), K)
    with pytest.raises(MapError):
        # "0" is a prefix of "02"
        from_prefix_table(PrefixTable((("0", "0", 1), ("02", "2", 1))), K)
    with pytest.raises(MapError):
        # depth 1 too shallow for length-2 addresses
        from_prefix_table(TABLES["G3"], ternary_cantor(1))
    # sources and targets that are not a complete antichain of addresses
    # end in the map checks of pa_homeo
    for rows in [(("0", "0", 1), ("0", "2", 1)),  # a duplicate source
                 (("0", "0", 1), ("2", "02", 1)),  # "0" is a prefix of "02"
                 (("0", "00", 1), ("2", "2", 1)),  # targets cover mass 3/4
                 ()]:
        with pytest.raises(MapError):
            from_prefix_table(PrefixTable(rows), K)
    # orientations other than +-1 are refused by name: without that check
    # ("2", "22", -3) would build a valid reflection of "2" onto itself
    for rows in [(("0", "00", 3), ("2", "2", 1)),
                 (("0", "0", 1), ("2", "22", -3))]:
        with pytest.raises(MapError, match="bad orientation"):
            from_prefix_table(PrefixTable(rows), K)


def test_validation_asks_no_cylinder(monkeypatch):
    # the cylinder decomposition already holds each cylinder's interval
    calls = []
    cylinder = Ifs.cylinder
    monkeypatch.setattr(Ifs, "cylinder",
                        lambda self, w: calls.append(w) or cylinder(self, w))
    w = compose(A1, compose(A2, A1))
    assert pa_homeo(K, w.branches).branches == w.branches
    assert calls == []


def _random_word(rng, length):
    letters = [A1, A2, invert(A1), invert(A2)]
    w = identity_map(K)
    for _ in range(length):
        w = compose(rng.choice(letters), w)
    return w


def test_break_inclusion_law_sample():
    # break_pairs(h o g) is contained in break_pairs(g) union the
    # g-preimages of break points of h
    rng = random.Random(7)
    for _ in range(60):
        g = _random_word(rng, rng.randint(1, 4))
        h = _random_word(rng, rng.randint(1, 4))
        gi = invert(g)
        allowed = set(break_pairs(g))
        pulled = {apply(gi, p) for p in break_points(h)}
        for bp in break_pairs(compose(h, g)):
            assert bp in allowed or bp.a in pulled or bp.b in pulled


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_word_image_is_bijection(idxs):
    letters = [A1, A2, invert(A1), invert(A2)]
    w = identity_map(K)
    for i in idxs:
        w = compose(letters[i], w)
    # exact invertibility; the image of the depth-3 material may sit in
    # deeper cylinders, so only containment in K's hull is asserted
    assert image(w, Region.whole(K)).subset_of(Region.whole(K))
    assert is_identity(compose(invert(w), w))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=4), st.integers(0, 7))
def test_regularity_radius_property(idxs, cell):
    # every segment shorter than r0 contains no break pair of the word's
    # generators; freeze the generator set {A1, A2}
    r0 = regularity_radius([A1, A2])
    assert r0 == F(1, 27)
    cells = ternary_cantor(3).intervals
    lo, hi = cells[cell % len(cells)]
    seg = (lo, lo + min(hi - lo, r0 * F(9, 10)))
    for g in (A1, A2):
        assert regular_on(g, seg[0], seg[1])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([F(1, 3), F(1, 4), F(1, 5), F(2, 7)]), min_size=2, max_size=4),
       st.data())
def test_reflection_check_reads_the_children(ratios, data):
    # the check compares child i, reflected, with child n - 1 - i; on IFSs
    # built mirror-symmetric about a centre c, and on others, it decides as
    # the check on ratios and offsets does
    n = len(ratios)
    offsets = sorted(data.draw(st.lists(st.fractions(-1, 2, max_denominator=12),
                                        min_size=n, max_size=n, unique=True)))
    if data.draw(st.booleans()):
        ratios = [ratios[min(i, n - 1 - i)] for i in range(n)]
        c = data.draw(st.fractions(0, 2, max_denominator=4))
        for i in range(n // 2, n):
            j = n - 1 - i
            offsets[i] = c * (1 - ratios[i]) / 2 if i == j else c - ratios[j] * c - offsets[j]
    try:
        K = CompactSet.from_ifs(Ifs(tuple(ratios), tuple(offsets), tuple("abcd"[:n])), 0)
    except ValueError:
        return
    try:
        from_prefix_table(PrefixTable((("", "", -1),)), K)
    except MapError as e:
        assert not reflection_symmetric_ref(K.ifs) and "asymmetric IFS" in str(e)
    else:
        assert reflection_symmetric_ref(K.ifs)
