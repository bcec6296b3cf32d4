"""Region kernels on int pairs against the Fraction kernels they replaced.

space.Piece stores its ends as int pairs, and space._normalize_pieces,
space._sweep, maps._image_pieces and maps.maps_into compare them by
cross-multiplication.  The Fraction versions of those kernels are kept
below as the reference: on flagged pieces drawn from the ends of K's
intervals, the midpoints of its gaps and a few other points, so that pieces
touch K in one point and open and closed ends meet at one key, every
Boolean operation, inclusion test (Region._covers of one piece included),
image and maps_into must agree with them, and point membership, emptiness
and the extremes with a scan of K.
"""

import operator
from collections import namedtuple
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk.maps import image, maps_into
from cantorwalk.space import Piece, Region, ternary_cantor

from fixtures import in_region
from test_lookups import infimum_ref, is_empty_ref, letter_words, supremum_ref
from test_space import bounded_gaps

FPiece = namedtuple("FPiece", "lo hi lo_closed hi_closed")


def normalize_ref(pieces):
    ps = sorted((p for p in pieces
                 if p.lo < p.hi or p.lo == p.hi and p.lo_closed and p.hi_closed),
                key=lambda p: (p.lo, not p.lo_closed))
    out = []
    for p in ps:
        if out:
            q = out[-1]
            if p.lo < q.hi or (p.lo == q.hi and (q.hi_closed or p.lo_closed)):
                hi, hi_closed = max((q.hi, q.hi_closed), (p.hi, p.hi_closed))
                out[-1] = FPiece(q.lo, hi, q.lo_closed, hi_closed)
                continue
        out.append(p)
    return tuple(out)


def sweep_ref(a, b, keep):
    ka, kb = ([k for p in ps for k in ((p.lo, not p.lo_closed), (p.hi, p.hi_closed))]
              for ps in (a, b))
    na, nb = len(ka), len(kb)
    rest_of_a, rest_of_b = keep(True, False), keep(False, True)
    i = j = 0
    in_a = in_b = on = False
    out = []
    while (i < na or rest_of_b and j < nb) and (j < nb or rest_of_a and i < na):
        if j == nb:
            step_a, step_b = True, False
        elif i == na:
            step_a, step_b = False, True
        else:
            (x, f), (y, g) = ka[i], kb[j]
            if x == y:
                step_a, step_b = f <= g, g <= f
            else:
                step_a = x < y
                step_b = not step_a
        if step_a:
            x, f = ka[i]
            i += 1
            in_a = not in_a
        if step_b:
            x, f = kb[j]
            j += 1
            in_b = not in_b
        if keep(in_a, in_b) != on:
            if on:
                out.append(FPiece(lo, x, not lo_key, f))
            on, lo, lo_key = not on, x, f
    return tuple(out)


def meets_space_ref(K, p):
    """Whether p holds a point of K, over every interval of K."""
    return any(max(l, p.lo) < min(r, p.hi) or (p.lo_closed or p.lo < l)
               and (p.hi_closed or r < p.hi)
               for l, r in K.intervals if l <= p.hi and p.lo <= r)


def image_pieces_ref(f, pieces):
    """The images of the pieces clipped to every branch source they meet."""
    for p in pieces:
        for b in f.branches:
            if p.hi < b.lo or b.hi < p.lo:
                continue
            holds_lo = p.lo < b.lo or p.lo == b.lo and p.lo_closed
            holds_hi = b.hi < p.hi or b.hi == p.hi and p.hi_closed
            lo, lo_closed = (b.lo, True) if holds_lo else (p.lo, p.lo_closed)
            hi, hi_closed = (b.hi, True) if holds_hi else (p.hi, p.hi_closed)
            if lo == hi and not (lo_closed and hi_closed):
                continue
            va, vb = b.value(lo), b.value(hi)
            yield (FPiece(va, vb, lo_closed, hi_closed) if b.slope > 0
                   else FPiece(vb, va, hi_closed, lo_closed))


def fractions_of(region):
    return tuple(FPiece(p.lo, p.hi, p.lo_closed, p.hi_closed) for p in region.pieces)


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
        assert in_region(A, x) == (K.contains(x) and any(
            p.lo < x < p.hi or x == p.lo and p.lo_closed or x == p.hi and p.hi_closed
            for p in ra))
    assert A.is_empty() == is_empty_ref(A)
    if not A.is_empty():
        assert (A.infimum(), A.supremum()) == (infimum_ref(A), supremum_ref(A))
    assert fractions_of(A.union(B)) == sweep_ref(ra, rb, operator.or_)
    assert fractions_of(A.intersect(B)) == sweep_ref(ra, rb, operator.and_)
    assert fractions_of(A.difference(B)) == sweep_ref(ra, rb, operator.gt)
    assert A.subset_of(B) == (not any(
        meets_space_ref(K, p) for p in sweep_ref(ra, rb, operator.gt)))
    assert A.disjoint_from(B) == (not any(
        meets_space_ref(K, p) for p in sweep_ref(ra, rb, operator.and_)))
    # one piece at a time, as maps_into and the ping-pong shrink loop ask;
    # without the sweep, an answer or None
    for p in ra:
        inside = not any(meets_space_ref(K, q) for q in sweep_ref((p,), rb, operator.gt))
        assert B._covers(Piece(*p)) == inside
        assert B._covers(Piece(*p), False) in (inside, None)
    img = normalize_ref(image_pieces_ref(w, ra))
    assert fractions_of(image(w, A)) == img
    # B, and B joined with the image, so that both answers occur
    for rt in (rb, sweep_ref(rb, img, operator.or_)):
        T = Region(K, tuple(Piece(*p) for p in rt))
        assert maps_into(w, A, T) == (not any(
            meets_space_ref(K, p) for p in sweep_ref(img, rt, operator.gt)))


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
