"""Region kernels on int pairs against the Fraction references.

space.Piece stores its ends as int pairs, and space._normalize_pieces,
space._sweep, maps._image_pieces and maps.maps_into compare them by
cross-multiplication.  The references in tests/reference.py do not sweep:
they normalize by a sort and merge, intersect every pair of pieces, take
complements between the pieces' ends and cut every piece to every branch
source.  On flagged pieces drawn from the ends of K's intervals, the
midpoints of its gaps and a few other points, so that pieces touch K in
one point and open and closed ends meet at one key, every Boolean
operation, inclusion test (Region._covers of one piece included), image
and maps_into must agree with them, and point membership (K._holds and
Region._pieces_hold), emptiness and the extremes with a scan of K.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk.maps import image, maps_into
from cantorwalk.rational import as_pair
from cantorwalk.space import Piece, Region, ternary_cantor

from fixtures import extremes, letter_words
from reference import (FPiece, bounded_gaps, difference_ref, fractions_of, image_ref, in_region,
                       infimum_ref, intersect_ref, is_empty_ref, meets_ref, normalize_ref,
                       region_of, supremum_ref, union_ref)


def marks(K):
    """The ends of K's intervals, the midpoints of its gaps and three more
    points, one of them inside K's hull."""
    lo, hi = K.hull
    return sorted({x for iv in K.intervals for x in iv} |
                  {(a + b) / 2 for a, b in bounded_gaps(K)} |
                  {lo - 1, hi + 1, (lo + hi) / 3})


@st.composite
def flagged_bags(draw, K):
    """Up to five flagged pieces, their ends drawn from a few marks so that
    ends coincide, or rationals between them; some pieces are one point."""
    lo, hi = K.hull
    end = st.one_of(st.sampled_from(marks(K)),
                    st.fractions(lo - 1, hi + 1, max_denominator=60))
    bag = []
    for _ in range(draw(st.integers(0, 5))):
        a, b = sorted((draw(end), draw(end)))
        bag.append(FPiece(a, b, draw(st.booleans()), draw(st.booleans())))
    return bag


@settings(max_examples=150, deadline=None)
@given(letter_words(max_size=4), st.data())
def test_region_kernels_match_fraction_kernels(word, data):
    letters, w = word
    K = w.space
    bag_a, bag_b = data.draw(flagged_bags(K)), data.draw(flagged_bags(K))
    A = Region.from_pieces(K, [Piece(*p) for p in bag_a])
    B = Region.from_pieces(K, [Piece(*p) for p in bag_b])
    ra, rb = normalize_ref(bag_a), normalize_ref(bag_b)
    assert fractions_of(A) == ra and fractions_of(B) == rb
    for x in marks(K) + [p.lo for p in ra] + [p.hi for p in ra]:
        assert (K._holds(as_pair(x)) and A._pieces_hold(as_pair(x))) == in_region(A, x)
    assert A.is_empty() == is_empty_ref(A)
    if not A.is_empty():
        assert extremes(A) == (infimum_ref(A), supremum_ref(A))
    assert fractions_of(A.union(B)) == union_ref(ra, rb)
    assert fractions_of(A.intersect(B)) == intersect_ref(ra, rb)
    assert fractions_of(A.difference(B)) == difference_ref(ra, rb)
    assert A.subset_of(B) == (not any(meets_ref(K, p) for p in difference_ref(ra, rb)))
    assert A.disjoint_from(B) == (not any(meets_ref(K, p) for p in intersect_ref(ra, rb)))
    # one piece at a time, as maps_into and the ping-pong shrink loop ask;
    # without the sweep, an answer or None
    for p in ra:
        inside = not any(meets_ref(K, q) for q in difference_ref((p,), rb))
        assert B._covers(Piece(*p)) == inside
        assert B._covers(Piece(*p), False) in (inside, None)
    img = fractions_of(image_ref(w, region_of(K, ra)))
    assert fractions_of(image(w, A)) == img
    # B, and B joined with the image, so that both answers occur
    for rt in (rb, union_ref(rb, img)):
        T = region_of(K, rt)
        assert maps_into(w, A, T) == (not any(
            meets_ref(K, p) for p in difference_ref(img, rt)))


@pytest.mark.parametrize("p, pieces, quick, inside", [
    # an open end in K outside T is not a point of p
    ((F(0), F(1), False, True), [(F(0), F(1, 2), False, False), (F(1, 2), F(1), False, True)],
     None, True),
    # a held end outside T and outside K is not a point of K
    ((F(1, 2), F(1), True, True), [(F(2, 3), F(1), True, True)], None, True),
    ((F(0), F(1), True, True), [(F(0), F(1), False, True)], False, False),
    ((F(0), F(1, 3), True, True), [(F(0), F(1, 2), True, False)], True, True),
])
def test_covers_reads_only_held_ends_in_K(p, pieces, quick, inside):
    # K = [0, 1/3] and [2/3, 1]; 1/2 lies in its gap
    K = ternary_cantor(1)
    T = Region.from_pieces(K, [Piece(*q) for q in pieces])
    assert T._covers(Piece(*p), False) is quick
    assert T._covers(Piece(*p)) is inside
