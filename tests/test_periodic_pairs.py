"""Periodic points from branch powers against the itinerary search they replaced.

verify.periodic_points solves the fixed points of the branches of f^p,
composed on int pairs once per period, and verify._fixed_points gives the
attracting fixed points behind the contraction search.  The Fraction
itinerary search (a depth-first walk over cyclic branch sequences) and the
attracting fixed-point scan they replaced are kept below as references.

The family sets must agree, and on IFS sets the points too.  On the plain set
the search also followed itineraries that meet in a single point, and so
reported points at kinks where f^p is the identity on both sides: there the
new points must be a subset, and every point only the reference reports
must lie in a reported family.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from cantorwalk.verify import _fixed_points, periodic_points

from fixtures import letter_words
from reference import contains_ref


def periodic_points_ref(f, max_period):
    """(points, families) by branch itineraries, on Fractions."""
    K = f.space
    found = {}
    fams = []

    def record_family(lo, hi, p):
        for flo, fhi, fp in fams:
            if p % fp == 0 and flo <= lo and hi <= fhi:
                return
        fams.append((lo, hi, p))

    def dfs(dlo, dhi, s, t, depth, target):
        if depth == target:
            if s != 1:
                x = t / (1 - s)
                if dlo <= x <= dhi and contains_ref(K, x) and \
                        (K.ifs is None or K.contains_limit_point(x)):
                    if x not in found:
                        found[x] = (depth, s)
            elif t == 0 and dlo < dhi:
                record_family(dlo, dhi, depth)
            return
        lo_img, hi_img = sorted((s * dlo + t, s * dhi + t))
        for b in f.branches:
            nlo, nhi = max(lo_img, b.lo), min(hi_img, b.hi)
            if nlo > nhi:
                continue
            if s > 0:
                d2 = ((nlo - t) / s, (nhi - t) / s)
            else:
                d2 = ((nhi - t) / s, (nlo - t) / s)
            dfs(max(d2[0], dlo), min(d2[1], dhi),
                b.slope * s, b.slope * t + b.offset, depth + 1, target)

    for p in range(1, max_period + 1):
        for b0 in f.branches:
            dfs(b0.lo, b0.hi, b0.slope, b0.offset, 1, p)
    pts = tuple(sorted((x, per, mult) for x, (per, mult) in found.items()))
    return pts, tuple(fams)


def attracting_fixed_points_ref(w):
    pts = set()
    for b in w.branches:
        if abs(b.slope) >= 1:
            continue
        x = b.offset / (1 - b.slope)
        if b.lo <= x <= b.hi and contains_ref(w.space, x):
            pts.add(x)
    return sorted(pts)


@settings(max_examples=60, deadline=None)
@given(letter_words(max_size=6), st.integers(1, 5))
def test_periodic_points_match_itinerary_search(word, horizon):
    letters, w = word
    rep = periodic_points(w, horizon)
    points, families = periodic_points_ref(w, horizon)
    assert set(rep.families) == set(families)
    if w.space.ifs is not None:
        assert rep.points == points
    else:
        assert set(rep.points) <= set(points)
        for x, _, _ in set(points) - set(rep.points):
            assert any(lo <= x <= hi for lo, hi, _ in rep.families)
    attracting = {F(*x) for x, (n, d) in _fixed_points(w)[0] if abs(n) < d}
    assert sorted(attracting) == attracting_fixed_points_ref(w)
