"""Maps on sets without IFS structure, stored cut at the gaps of K.

pa_homeo clips each branch on a plain set to the intervals of K it meets
in more than a point, checks that the sorted sources and the sorted images
each run through every interval of K end to end (maps._tiles, on int
pairs), and break_pairs then reads a plain map's break pairs as it reads an
IFS map's.  reference.validate_plain_ref is the check made before the cut:
nonzero slopes and sources that do not overlap, sources that cover each
interval of K, images of K material that tile K by a Fraction merge and a
length count, and branches that agree where they share a point of K.
reference.break_pairs_ref tests every bounded gap of a plain K.  Both are
compared with the code that replaced them, on the plain alphabets, on
blow-ups of rotations and on perturbed branch lists.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk.giet import blow_up
from cantorwalk.maps import Branch, MapError, apply, break_pairs, compose, invert, pa_homeo
from cantorwalk.space import CompactSet

from fixtures import SPANNING, SPANNING_BRANCHES, alphabets, endpoints, rotation, word_in
from reference import break_pairs_ref, validate_plain_ref

# blow-ups of the rotations by p/q, q <= 6, at orbit length 3 and weight ratio 1/3
BLOW_UPS = [blow_up([rotation(F(p, q))], 3, F(1, 3))
            for q in range(2, 7) for p in range(1, q) if gcd(p, q) == 1]


def _plain_alphabets():
    return [letters for letters in alphabets() if letters[0].space.ifs is None] + [
        [*r.induced, *map(invert, r.induced)] for r in BLOW_UPS]


def _plain_letters():
    return [g for letters in _plain_alphabets() for g in letters]


def _accepted(check, space, branches) -> bool:
    try:
        check(space, branches)
    except MapError:
        return False
    return True


def _inside_one_interval(K, b) -> bool:
    return any(l <= b.lo and b.hi <= r for l, r in K.intervals)


@pytest.mark.parametrize("f", _plain_letters(), ids=lambda f: "-".join(f.label) or "g")
def test_plain_maps_are_stored_cut_at_the_gaps(f):
    # each source inside one interval of K, images that do not overlap,
    # a cut that changes nothing the second time, and an inverse that
    # undoes f at every end of K's intervals
    K = f.space
    assert all(_inside_one_interval(K, b) for b in f.branches)
    images = sorted(b.ends for b in f.branches)
    assert all(i[1] <= j[0] for i, j in zip(images, images[1:]))
    assert pa_homeo(K, f.branches, f.label).branches == f.branches
    g = invert(f)
    for x in endpoints(K):
        assert apply(g, apply(f, x)) == x


def test_spanning_branches_are_cut_at_the_gaps():
    # S as given spans the gap (1, 2); stored, it has one branch more
    for name, given_branches in SPANNING_BRANCHES.items():
        f = pa_homeo(SPANNING, given_branches, label=(name,))
        spans = [b for b in given_branches if not _inside_one_interval(SPANNING, b)]
        assert len(f.branches) == len(given_branches) + len(spans)
        assert break_pairs_ref(f) == break_pairs(f)
    S = pa_homeo(SPANNING, SPANNING_BRANCHES["S"])
    assert apply(invert(S), F(4)) == 2


@st.composite
def perturbed(draw):
    """(K, a branch list): a plain letter's stored branches or, on SPANNING,
    a letter's branches as given, with an end shifted, a slope altered or
    a branch dropped, or left as it is."""
    if draw(st.booleans()):
        f = draw(st.sampled_from(_plain_letters()))
        K, bs = f.space, list(f.branches)
    else:
        K, bs = SPANNING, list(draw(st.sampled_from(list(SPANNING_BRANCHES.values()))))
    i = draw(st.integers(0, len(bs) - 1))
    b = bs[i]
    ends = sorted({x for l, r in K.intervals for x in (l, r, l - F(1, 10), r + F(1, 10))}
                  | {(r + l) / 2 for (_, r), (l, _) in zip(K.intervals, K.intervals[1:])})
    how = draw(st.sampled_from(["none", "lo", "hi", "slope", "drop"]))
    if how == "lo":
        bs[i] = Branch(draw(st.sampled_from(ends)), b.hi, b.slope, b.offset)
    elif how == "hi":
        bs[i] = Branch(b.lo, draw(st.sampled_from(ends)), b.slope, b.offset)
    elif how == "slope":
        bs[i] = Branch(b.lo, b.hi, b.slope * draw(st.sampled_from([-1, F(1, 2), 2])), b.offset)
    elif how == "drop":
        del bs[i]
    return K, bs


@settings(max_examples=300, deadline=None)
@given(perturbed())
def test_tiling_check_accepts_what_the_fraction_validator_accepts(case):
    K, bs = case
    accepted = _accepted(pa_homeo, K, bs)
    assert accepted == _accepted(validate_plain_ref, K, bs)
    if accepted:
        f = pa_homeo(K, bs)
        assert break_pairs(f) == break_pairs_ref(f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_break_pairs_match_every_bounded_gap_rule(data):
    # words over the plain alphabets and the blow-ups' maps
    letters = data.draw(st.sampled_from(_plain_alphabets()))
    idx = data.draw(st.lists(st.integers(0, len(letters) - 1), min_size=1, max_size=6))
    w = word_in(letters, idx)
    for f in (w, invert(w), compose(w, w)):
        assert break_pairs(f) == break_pairs_ref(f)


def test_one_point_interval_has_no_map():
    # no branch meets [2, 2] in more than a point, so no sources tile K
    K = CompactSet.from_intervals([(0, 1), (2, 2)])
    with pytest.raises(MapError, match="sources do not tile"):
        pa_homeo(K, [Branch(F(0), F(2), F(1), F(0))])
