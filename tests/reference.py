"""The Fraction references that the tests hold the int-pair kernels to.

One function per concept, each a plain reading of its definition: it scans
every piece and every branch in Fraction arithmetic, through the Fraction
views of the program's classes (K's intervals are found by the standard
library's bisection of their Fraction ends), and calls no kernel that it
is the reference of.  Pieces are FPieces (any object with lo, hi,
lo_closed and hi_closed reads as one); a Region's pieces are read through
fractions_of.  The gap lookups read the IFS address expansion, Ifs._expand,
which tests/test_space.py holds to a Fraction loop of its own.
"""

import bisect
import math
from collections import namedtuple
from fractions import Fraction

from cantorwalk.maps import BreakPair, MapError, invert
from cantorwalk.rational import affine, as_pair, coprime_fraction
from cantorwalk.space import Ifs, Piece, Region

FPiece = namedtuple("FPiece", "lo hi lo_closed hi_closed")


def fractions_of(region: Region) -> tuple:
    """The pieces of a region as FPieces: their Fraction views and flags."""
    return tuple(FPiece(p.lo, p.hi, p[2], p[3]) for p in region.pieces)


def region_of(K, pieces) -> Region:
    """The region of K holding these sorted, disjoint and maximal pieces,
    as they are."""
    return Region(K, tuple(Piece(*p) for p in pieces))


# -- points and pieces against K ---------------------------------------------


_INTERVALS = {}  # id(K) -> (K, its intervals, their left ends); K is immutable


def _intervals(K) -> tuple:
    """K's intervals as Fractions, and their left ends, built once per space."""
    got = _INTERVALS.get(id(K))
    if got is None or got[0] is not K:
        got = _INTERVALS[id(K)] = (K, K.intervals, [l for l, _ in K.intervals])
    return got[1:]


def contains_ref(K, x) -> bool:
    """Whether an interval of K holds x: the last one that starts at or
    before x, found by the standard library's bisection of the Fraction
    left ends."""
    intervals, lefts = _intervals(K)
    i = bisect.bisect_right(lefts, x)
    return i > 0 and x <= intervals[i - 1][1]


def on_pieces(pieces, x) -> bool:
    """Whether a piece holds x, on the line."""
    return any(p.lo < x < p.hi or x == p.lo and p.lo_closed or x == p.hi and p.hi_closed
               for p in pieces)


def in_region(S: Region, x) -> bool:
    """Whether the rational x is a point of K that a piece of S holds."""
    x = Fraction(x)
    return contains_ref(S.space, x) and on_pieces(fractions_of(S), x)


def _overlaps(K, p):
    """(lo, hi) of p's overlap with each interval of K that p meets in more
    than a point, or in a point that p holds."""
    for l, r in _intervals(K)[0]:
        lo, hi = max(l, p.lo), min(r, p.hi)
        if lo < hi or lo == hi and (lo > p.lo or p.lo_closed) and (hi < p.hi or p.hi_closed):
            yield lo, hi


def meets_ref(K, p) -> bool:
    """Whether the piece p holds a point of K."""
    return any(True for _ in _overlaps(K, p))


def is_empty_ref(S: Region) -> bool:
    return not any(meets_ref(S.space, p) for p in fractions_of(S))


def infimum_ref(S: Region):
    """The inf of S ∩ K, over every piece and every interval of K."""
    return min((lo for p in fractions_of(S) for lo, _ in _overlaps(S.space, p)),
               default=None)


def supremum_ref(S: Region):
    """The sup of S ∩ K, over every piece and every interval of K."""
    return max((hi for p in fractions_of(S) for _, hi in _overlaps(S.space, p)),
               default=None)


# -- piece normalization and the Boolean operations ----------------------------


def normalize_ref(pieces) -> tuple:
    """The points of the pieces as sorted, disjoint and maximal FPieces:
    empty pieces dropped, a sort by left end (a closed one first at equal
    ends), and each piece merged into the last one when it overlaps it or
    they meet at a point that one of them holds."""
    ps = sorted((p for p in pieces
                 if p.lo < p.hi or p.lo == p.hi and p.lo_closed and p.hi_closed),
                key=lambda p: (p.lo, not p.lo_closed))
    out = []
    for p in ps:
        q = out[-1] if out else None
        if q and (p.lo < q.hi or p.lo == q.hi and (q.hi_closed or p.lo_closed)):
            hi, hi_closed = max((q.hi, q.hi_closed), (p.hi, p.hi_closed))
            out[-1] = FPiece(q.lo, hi, q.lo_closed, hi_closed)
        else:
            out.append(FPiece(p.lo, p.hi, p.lo_closed, p.hi_closed))
    return tuple(out)


def merge_ref(pairs) -> tuple:
    """Closed intervals, sorted and merged where they overlap or touch."""
    return tuple((p.lo, p.hi) for p in normalize_ref(FPiece(l, r, True, True) for l, r in pairs))


def intersect_piece_ref(a, b):
    """a ∩ b as an FPiece, or None when it is empty: the later left end (an
    open one after a closed one) and the earlier right end (an open one
    before a closed one)."""
    lo, lo_open = max((a.lo, not a.lo_closed), (b.lo, not b.lo_closed))
    hi, hi_closed = min((a.hi, a.hi_closed), (b.hi, b.hi_closed))
    if lo < hi or lo == hi and not lo_open and hi_closed:
        return FPiece(lo, hi, not lo_open, hi_closed)
    return None


def union_ref(a, b) -> tuple:
    return normalize_ref((*a, *b))


def intersect_ref(a, b) -> tuple:
    """Every piece of a cut to every piece of b."""
    cut = (intersect_piece_ref(p, q) for p in a for q in b)
    return normalize_ref(c for c in cut if c is not None)


def difference_ref(a, b) -> tuple:
    """a without b, on the line: a cut to the stretches before, between and
    after b's normalized pieces within the closed interval spanned by the
    ends of both (an empty stretch cuts nothing)."""
    ends = [x for p in (*a, *b) for x in (p.lo, p.hi)]
    if not ends:
        return ()
    off_b, cur, cur_closed = [], min(ends), True
    for p in normalize_ref(b):
        off_b.append(FPiece(cur, p.lo, cur_closed, not p.lo_closed))
        cur, cur_closed = p.hi, not p.hi_closed
    off_b.append(FPiece(cur, max(ends), cur_closed, True))
    return intersect_ref(a, off_b)


# -- maps -------------------------------------------------------------------


def branch_ref(f, x):
    """The rightmost branch whose source holds x, by a scan."""
    held = [b for b in f.branches if b.lo <= x <= b.hi]
    if not held:
        raise MapError(f"{x} is not in any branch source")
    return held[-1]


def apply_ref(f, x) -> Fraction:
    """f(x) for a point x of K, through the rightmost branch holding it."""
    x = Fraction(x)
    if not contains_ref(f.space, x):
        raise MapError(f"{x} not in the ambient set")
    b = branch_ref(f, x)
    return b.slope * x + b.offset


def image_ref(f, S: Region) -> Region:
    """f(S): each piece of S cut to each branch source (closed) that it
    meets, carried by that branch, and the images normalized."""
    pieces = []
    for b in f.branches:
        for p in fractions_of(S):
            q = intersect_piece_ref(p, FPiece(b.lo, b.hi, True, True))
            if q is None:
                continue
            va, vb = b.slope * q.lo + b.offset, b.slope * q.hi + b.offset
            pieces.append(FPiece(va, vb, q.lo_closed, q.hi_closed) if b.slope > 0
                          else FPiece(vb, va, q.hi_closed, q.lo_closed))
    return region_of(f.space, normalize_ref(pieces))


def orbit_closure_ref(gens: dict, starts, bound: int = 2000):
    """The sorted closure of the start points under the generators and their
    inverses, by breadth-first search, or None once it holds more than
    bound points."""
    ops = list(gens.values())
    ops += [invert(g) for g in ops]
    found = list(dict.fromkeys(Fraction(s) for s in starts))
    seen = set(found)
    for x in found:  # grows as it is read, so each point found is read
        if len(found) > bound:
            return None
        for g in ops:
            y = apply_ref(g, x)
            if y not in seen:
                seen.add(y)
                found.append(y)
    return tuple(sorted(found))


def validate_plain_ref(space, branches):
    """Raise MapError unless the branches, sorted, have nonzero slopes and
    sources of positive length that do not overlap, their sources cover
    every interval of K, their images of K material tile K (the merged
    images are K's intervals and their lengths add up to K's), and two
    branches that share a point of K agree there: the check that plain
    maps had before they were cut at K's gaps."""
    bs = sorted(branches, key=lambda b: (b.lo, b.hi))
    if not bs:
        raise MapError("a map needs at least one branch")
    if any(b.slope == 0 or b.lo >= b.hi for b in bs):
        raise MapError("zero slope or degenerate branch source")
    if any(b2.lo < b1.hi for b1, b2 in zip(bs, bs[1:])):
        raise MapError("branch sources overlap")
    merged = merge_ref((b.lo, b.hi) for b in bs)
    for kl, kr in space.intervals:
        if not any(l <= kl and kr <= r for l, r in merged):
            raise MapError(f"sources do not cover [{kl}, {kr}]")
    imgs, total = [], Fraction(0)
    for b in bs:
        for kl, kr in space.intervals:
            olo, ohi = max(kl, b.lo), min(kr, b.hi)
            if olo < ohi:
                imgs.append(tuple(sorted((b.slope * olo + b.offset, b.slope * ohi + b.offset))))
                total += abs(b.slope) * (ohi - olo)
    if not imgs:
        raise MapError("branches miss the ambient set entirely")
    if merge_ref(imgs) != space.intervals:
        raise MapError("branch images do not tile the ambient set")
    if total != sum(r - l for l, r in space.intervals):
        raise MapError("branch images overlap (length mismatch)")
    for b1, b2 in zip(bs, bs[1:]):
        if b1.hi == b2.lo and contains_ref(space, b1.hi) and (
                b1.slope * b1.hi + b1.offset != b2.slope * b1.hi + b2.offset):
            raise MapError(f"branches disagree at {b1.hi}")


def reflection_symmetric_ref(ifs: Ifs) -> bool:
    """sigma phi_i sigma = phi_{n-1-i} for sigma(x) = c2 - x, c2 twice the
    hull's center, checked on the ratios and offsets: equal ratios, and
    o_j = c2 - r_i * c2 - o_i.  The hull ends are the fixed points
    o / (1 - r) of the first and the last map."""
    (r0, *_, r1), (o0, *_, o1) = ifs.ratios, ifs.offsets
    c2, n = o0 / (1 - r0) + o1 / (1 - r1), len(ifs.ratios)
    return all(ifs.ratios[i] == ifs.ratios[n - 1 - i]
               and ifs.offsets[n - 1 - i] == c2 - ifs.ratios[i] * c2 - ifs.offsets[i]
               for i in range(n))


# -- gaps and break pairs -----------------------------------------------------

Gap = namedtuple("Gap", "kind left right")  # kind: bounded, left- or right-unbounded


def gaps(k) -> list[Gap]:
    """The gaps of k, left to right: the two unbounded ones and each bounded one."""
    return [Gap("left-unbounded", None, k.intervals[0][0]),
            *(Gap("bounded", r1, l2) for (_, r1), (l2, _) in zip(k.intervals, k.intervals[1:])),
            Gap("right-unbounded", k.intervals[-1][1], None)]


def bounded_gaps(k) -> list[tuple[Fraction, Fraction]]:
    return [(g.left, g.right) for g in gaps(k) if g.kind == "bounded"]


def bisect_pairs(rows, j: int, x: tuple, right: bool = True) -> int:
    """bisect.bisect_right (bisect_left when not right) of the pair x in the
    rows, sorted by the value of their pairs row[j], by cross-multiplication:
    the oracle of rational.place_right and place_left."""
    (xn, xd), lo, hi = x, 0, len(rows)
    while lo < hi:
        mid = (lo + hi) // 2
        c = rows[mid][j][0] * xd - xn * rows[mid][j][1]
        lo, hi = (mid + 1, hi) if c < 0 or right and c == 0 else (lo, mid)
    return lo


def _ifs_gap_pairs(ifs: Ifs, t: tuple) -> tuple:
    """The bounded gaps of the limit set whose closure holds t: the gap
    containing t, or the gap adjacent to the limit point t; () when t is
    off the hull or touches no gap.  t and the gap ends are reduced int
    pairs."""
    levels, gap = ifs._expand(t)
    children = ifs._int_children
    if gap is None:
        # a limit point touches a gap where it ends a child with a
        # neighbour on that side; from the next level on it sits at a
        # hull end, which repeats at once: that is the second-last level
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
    # each end is t + scale * (child end - y), scale = product of the c/a above
    k, g, (yn, yd) = gap
    above = [ifs._int_inverses[i] for i, _ in levels[:k]]
    scale = math.prod(c for _, _, c in above), math.prod(a for a, _, _ in above)
    return (tuple(affine(scale, (cn * yd - yn * cd, cd * yd), t)
                  for cn, cd in (children[g][1], children[g + 1][0])),)


def gap_pairs(k, t: tuple) -> tuple:
    """The bounded gaps of the true set k, an Ifs or a CompactSet (with IFS
    structure, of the limit set), whose closure holds t, left to right; all
    ends are int pairs."""
    if isinstance(k, Ifs) or k.ifs is not None:
        return _ifs_gap_pairs(k if isinstance(k, Ifs) else k.ifs, t)
    # gap j is (right end of interval j, left end of interval j + 1)
    ends = k.ends
    first = max(bisect_pairs(ends, 0, t, False) - 1, 0)
    stop = min(bisect_pairs(ends, 1, t), len(ends) - 1)
    return tuple((ends[j][1], ends[j + 1][0]) for j in range(first, stop))


def gaps_at(k, t: Fraction) -> tuple[tuple[Fraction, Fraction], ...]:
    """gap_pairs on Fractions."""
    return tuple((coprime_fraction(*a), coprime_fraction(*b))
                 for a, b in gap_pairs(k, as_pair(t)))


def break_pairs_ref(f) -> list:
    """The gaps (a, b) of K whose images f(a), f(b) bound no gap, left to
    right.  On an IFS set the gaps of the limit set whose closure holds an
    interior branch end are tested, on a plain set every bounded gap."""
    K = f.space
    if K.ifs is None:
        candidates = set(bounded_gaps(K))
    else:
        bounds = {x for b in f.branches for x in (b.lo, b.hi)} - set(K.hull)
        candidates = {g for t in bounds for g in gaps_at(K, t)}
    out = []
    for a, b in sorted(candidates):
        u, v = sorted((apply_ref(f, a), apply_ref(f, b)))
        if (u, v) not in gaps_at(K, v):
            out.append(BreakPair(a, b))
    return out
