"""Exact one-dimensional geometry.

Compact subsets of the line are finite unions of closed rational intervals,
optionally carrying an iterated-function-system descriptor that marks them as
the depth-d approximation of a self-similar Cantor set.  Regions are finite
unions of open/half-open/closed rational intervals intersected with such a
set; every membership and inclusion query is exact.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from typing import Iterable, NamedTuple, Optional, Sequence

from .rational import rat


class SpaceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# iterated function systems


@dataclass(frozen=True)
class Ifs:
    """Finitely many increasing affine contractions x -> ratio*x + offset.

    Maps are ordered left to right; their images of the convex hull must be
    disjoint.  ``symbols`` name the maps and form the address alphabet.
    """

    ratios: tuple[Fraction, ...]
    offsets: tuple[Fraction, ...]
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.ratios) == len(self.offsets) == len(self.symbols)):
            raise SpaceError("IFS component lists must have equal length")
        if len(self.ratios) < 2:
            raise SpaceError("IFS needs at least two maps")
        for r in self.ratios:
            if not 0 < r < 1:
                raise SpaceError(f"IFS ratio {r} not in (0,1)")
        if len(set(self.symbols)) != len(self.symbols):
            raise SpaceError("IFS symbols must be distinct")
        lo = self.offsets[0] / (1 - self.ratios[0])
        hi = self.offsets[-1] / (1 - self.ratios[-1])
        if lo >= hi:
            raise SpaceError("degenerate IFS hull")
        children = tuple((r * lo + o, r * hi + o)
                         for r, o in zip(self.ratios, self.offsets))
        if any(h1 >= l2 for (_, h1), (l2, _) in zip(children, children[1:])):
            raise SpaceError("IFS images must be disjoint, left to right")
        object.__setattr__(self, "hull", (lo, hi))
        object.__setattr__(self, "_children", children)
        # for _expand, in ints: the children, and each inverse map
        # y -> (y - o) / r as p/q -> (p*a - q*b) / (q*c)
        object.__setattr__(self, "_int_children", tuple(
            tuple((x.numerator, x.denominator) for x in c) for c in children))
        object.__setattr__(self, "_int_inverses", tuple(
            (o.denominator * r.denominator, o.numerator * r.denominator,
             o.denominator * r.numerator) for r, o in zip(self.ratios, self.offsets)))

    def cylinder(self, address: str) -> tuple[Fraction, Fraction]:
        """Interval of the cylinder addressed by a word over the symbols.

        The word is read outermost-first: I_w = phi_{w0}(I_{w1 w2 ...}).
        """
        lo, hi = self.hull
        for sym in address[::-1]:
            i = self.symbols.index(sym)
            lo = self.ratios[i] * lo + self.offsets[i]
            hi = self.ratios[i] * hi + self.offsets[i]
        return lo, hi

    def addresses(self, depth: int) -> list[str]:
        words = [""]
        for _ in range(depth):
            words = [w + s for w in words for s in self.symbols]
        return words

    def intervals_at(self, depth: int) -> list[tuple[Fraction, Fraction]]:
        """The depth-d cylinders in address order, level by level:
        I_{s w} = phi_s(I_w)."""
        cells = [self.hull]
        for _ in range(depth):
            cells = [(r * lo + o, r * hi + o)
                     for r, o in zip(self.ratios, self.offsets)
                     for lo, hi in cells]
        return cells

    def _expand(self, t: Fraction):
        """The address of t, one level per step, as (levels, gap).

        levels[k] = (i, y): at depth k the point has local coordinate y, an
        int pair (numerator, denominator > 0) in lowest terms, and lies in
        child i; its global scale there is the product of the ratios of the
        children above it.  The expansion stops when y repeats, so t is a
        limit point with an eventually periodic address and gap is None; or
        when y falls between children g and g + 1 at depth k, and gap is
        (k, g, Fraction(y)), a bounded gap of the limit set.  Points off the
        hull give ([], None).
        """
        levels, seen = [], set()
        lo, hi = self.hull
        if not lo <= t <= hi:
            return levels, None
        children, y = self._int_children, (t.numerator, t.denominator)
        while y not in seen:
            seen.add(y)
            p, q = y
            for i, ((ln, ld), (hn, hd)) in enumerate(children):
                if p * hd <= hn * q:
                    break
            if p * ld < ln * q:
                return levels, (len(levels), i - 1, Fraction(p, q))
            levels.append((i, y))
            a, b, c = self._int_inverses[i]
            p, q = p * a - q * b, q * c
            y = (p // (g := gcd(p, q)), q // g)
        return levels, None

    def gaps_at(self, t: Fraction) -> tuple[tuple[Fraction, Fraction], ...]:
        """The bounded gaps of the limit set whose closure holds t: the gap
        containing t, or the gap adjacent to the limit point t; () when t is
        off the hull or touches no gap."""
        levels, gap = self._expand(t)
        children = self._children
        if gap is None:
            # a limit point touches a gap where it ends a child with a
            # neighbour on that side; from the next level on it sits at a
            # hull end, which repeats at once: that is the second-last level
            if len(levels) < 2:
                return ()
            k = len(levels) - 2
            i, y = levels[k]
            if y == self._int_children[i][0] and i > 0:
                gap = k, i - 1, Fraction(*y)
            elif y == self._int_children[i][1] and i + 1 < len(children):
                gap = k, i, Fraction(*y)
            else:
                return ()
        k, g, y = gap
        above = [self.ratios[i] for i, _ in levels[:k]]
        scale = Fraction(prod(r.numerator for r in above),
                         prod(r.denominator for r in above))
        return ((t + scale * (children[g][1] - y),
                 t + scale * (children[g + 1][0] - y)),)

    def contains_limit_point(self, x: Fraction) -> bool:
        """Exact membership of a rational in the limit (infinite-depth) set."""
        levels, gap = self._expand(x)
        return bool(levels) and gap is None


# ---------------------------------------------------------------------------
# compact sets


def _normalize_intervals(pairs) -> tuple[tuple[Fraction, Fraction], ...]:
    cleaned = []
    for l, r in pairs:
        l, r = rat(l), rat(r)
        if l > r:
            raise SpaceError(f"interval [{l}, {r}] reversed")
        cleaned.append((l, r))
    if not cleaned:
        raise SpaceError("empty interval list")
    cleaned.sort()
    merged = [cleaned[0]]
    for l, r in cleaned[1:]:
        pl, pr = merged[-1]
        if l <= pr:
            merged[-1] = (pl, max(pr, r))
        else:
            merged.append((l, r))
    return tuple(merged)


@dataclass(frozen=True)
class Gap:
    kind: str  # "bounded" | "left-unbounded" | "right-unbounded"
    left: Optional[Fraction]
    right: Optional[Fraction]


@dataclass(frozen=True)
class CompactSet:
    """Finite union of disjoint closed rational intervals, sorted."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    ifs: Optional[Ifs] = None
    depth: int = 0

    @staticmethod
    def from_intervals(pairs) -> "CompactSet":
        return CompactSet(_normalize_intervals(pairs))

    @staticmethod
    def from_ifs(ifs: Ifs, depth: int) -> "CompactSet":
        if depth < 0:
            raise SpaceError("depth must be nonnegative")
        return CompactSet(tuple(ifs.intervals_at(depth)), ifs=ifs, depth=depth)

    # -- basic queries ------------------------------------------------------

    @property
    def hull(self) -> tuple[Fraction, Fraction]:
        return self.intervals[0][0], self.intervals[-1][1]

    @property
    def diameter(self) -> Fraction:
        lo, hi = self.hull
        return hi - lo

    def __contains__(self, x) -> bool:
        return self.contains(rat(x))

    @cached_property
    def _los(self) -> list:
        return [l for l, _ in self.intervals]

    @cached_property
    def _his(self) -> list:
        return [r for _, r in self.intervals]

    def contains(self, x: Fraction) -> bool:
        i = bisect.bisect_right(self._los, x) - 1
        return i >= 0 and x <= self.intervals[i][1]

    def meeting(self, lo: Fraction, hi: Fraction):
        """The intervals that meet [lo, hi], found by bisection."""
        return self.intervals[bisect.bisect_left(self._his, lo):
                              bisect.bisect_right(self._los, hi)]

    def contains_limit_point(self, x: Fraction) -> bool:
        """Membership in the underlying limit set (equals contains() when
        the set carries no IFS structure)."""
        if self.ifs is None:
            return self.contains(x)
        return self.ifs.contains_limit_point(x)

    def endpoints(self) -> list[Fraction]:
        pts = []
        for l, r in self.intervals:
            pts.append(l)
            if r != l:
                pts.append(r)
        return pts

    def gaps(self) -> list[Gap]:
        out = [Gap("left-unbounded", None, self.intervals[0][0])]
        for (l1, r1), (l2, r2) in zip(self.intervals, self.intervals[1:]):
            out.append(Gap("bounded", r1, l2))
        out.append(Gap("right-unbounded", self.intervals[-1][1], None))
        return out

    def bounded_gaps(self) -> list[tuple[Fraction, Fraction]]:
        return [(g.left, g.right) for g in self.gaps() if g.kind == "bounded"]

    def gaps_at(self, t: Fraction) -> tuple[tuple[Fraction, Fraction], ...]:
        """The bounded gaps of the true set whose closure holds t, left to
        right (with IFS structure, of the limit set)."""
        if self.ifs is not None:
            return self.ifs.gaps_at(t)
        # gap j is (his[j], los[j + 1])
        first = max(bisect.bisect_left(self._los, t) - 1, 0)
        stop = min(bisect.bisect_right(self._his, t), len(self.intervals) - 1)
        return tuple((self._his[j], self._los[j + 1]) for j in range(first, stop))

    # -- IFS-aware structure ------------------------------------------------

    def addresses(self) -> list[str]:
        if self.ifs is None:
            raise SpaceError("set has no IFS structure")
        return self.ifs.addresses(self.depth)

    def cylinder(self, address: str) -> tuple[Fraction, Fraction]:
        if self.ifs is None:
            raise SpaceError("set has no IFS structure")
        return self.ifs.cylinder(address)

    def decompose_into_cylinders(self, lo: Fraction,
                                 hi: Fraction) -> Optional[list[str]]:
        """Write [lo, hi] (intersected with the limit set) as a disjoint
        union of maximal cylinders, or None if the interval is not
        cylinder-aligned."""
        if self.ifs is None:
            raise SpaceError("set has no IFS structure")
        # only cylinders holding lo or hi without lying inside [lo, hi] are
        # split.  Deeper than that point's address expansion, no cylinder
        # holds it, or one starts (lo) or ends (hi) at it, or [lo, hi] is
        # not cylinder-aligned at any depth.
        max_depth = 1 + max(len(self.ifs._expand(x)[0]) for x in (lo, hi))
        # a child cylinder is its parent's image of the child of the hull
        hlo, hhi = self.ifs.hull
        parts, stack = [], [("", hlo, hhi)]
        while stack:
            addr, clo, chi = stack.pop()
            if hi < clo or chi < lo:
                continue
            if lo <= clo and chi <= hi:
                parts.append(addr)
            elif len(addr) >= max_depth:
                return None
            else:
                k = (chi - clo) / (hhi - hlo)
                stack.extend((addr + s, clo + k * (a - hlo), clo + k * (b - hlo))
                             for s, (a, b) in zip(self.ifs.symbols[::-1],
                                                  self.ifs._children[::-1]))
        return parts


def make_compact_set(pairs) -> CompactSet:
    """Normalize a list of rational endpoint pairs into a CompactSet."""
    return CompactSet.from_intervals(pairs)


def ternary_cantor(depth: int) -> CompactSet:
    """Depth-d approximation of the middle-thirds Cantor set in [0, 1]."""
    ifs = Ifs(ratios=(Fraction(1, 3), Fraction(1, 3)),
              offsets=(Fraction(0), Fraction(2, 3)),
              symbols=("0", "2"))
    return CompactSet.from_ifs(ifs, depth)


# ---------------------------------------------------------------------------
# point sets


@dataclass(frozen=True)
class PointSet:
    """Finite sorted set of rationals, all members of an ambient set."""

    space: CompactSet
    points: tuple[Fraction, ...]

    @staticmethod
    def of(space: CompactSet, points: Iterable) -> "PointSet":
        pts = sorted({rat(p) for p in points})
        for p in pts:
            if not space.contains(p):
                raise SpaceError(f"point {p} not in the ambient set")
        return PointSet(space, tuple(pts))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def delta_m(points: PointSet) -> Fraction:
    """Minimal pairwise distance among the points."""
    if len(points) < 2:
        raise SpaceError("delta_m needs at least two points")
    pts = points.points
    return min(b - a for a, b in zip(pts, pts[1:]))


# ---------------------------------------------------------------------------
# distances


def point_to_set_distance(x: Fraction, k: CompactSet) -> Fraction:
    best = None
    for l, r in k.intervals:
        if x < l:
            d = l - x
        elif x > r:
            d = x - r
        else:
            return Fraction(0)
        best = d if best is None else min(best, d)
    return best


def hausdorff_distance(a: CompactSet, b: CompactSet) -> Fraction:
    """Exact Hausdorff distance between two interval unions.

    sup_{x in A} d(x, B) is attained at an endpoint of A or at a midpoint of
    a gap of B lying inside A, so a finite candidate scan is exact.
    """

    def one_sided(src: CompactSet, dst: CompactSet) -> Fraction:
        candidates = src.endpoints()
        for (l1, r1), (l2, r2) in zip(dst.intervals, dst.intervals[1:]):
            mid = (r1 + l2) / 2
            if src.contains(mid):
                candidates.append(mid)
        return max(point_to_set_distance(x, dst) for x in candidates)

    return max(one_sided(a, b), one_sided(b, a))


# ---------------------------------------------------------------------------
# regions


class Piece(NamedTuple):
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool


def _normalize_pieces(pieces: Iterable[Piece]) -> tuple[Piece, ...]:
    """A bag of pieces as sorted, disjoint and maximal ones."""
    ps = sorted((p for p in pieces
                 if p.lo < p.hi or p.lo == p.hi and p.lo_closed and p.hi_closed),
                key=lambda p: (p.lo, not p.lo_closed))
    out: list[Piece] = []
    for p in ps:
        if out:
            q = out[-1]
            if p.lo < q.hi or (p.lo == q.hi and (q.hi_closed or p.lo_closed)):
                hi, hi_closed = max((q.hi, q.hi_closed), (p.hi, p.hi_closed))
                out[-1] = Piece(q.lo, hi, q.lo_closed, hi_closed)
                continue
        out.append(p)
    return tuple(out)


def _sweep(a: Sequence[Piece], b: Sequence[Piece], keep):
    """The pieces, left to right, where keep(in a, in b) holds, for a and b
    sorted, disjoint and maximal and keep(False, False) false.

    An end is a key (x, 0) just before x or (x, 1) just after it: a piece
    runs from (lo, not lo_closed) to (hi, hi_closed).  The keys of a and b
    are merged in order and ends of both at one key toggle together, so the
    pieces yielded are sorted, disjoint and maximal.  The merge stops when
    an operand has no ends left and keep is false outside it.
    """
    ka, kb = ([k for p in ps for k in ((p.lo, not p.lo_closed), (p.hi, p.hi_closed))]
              for ps in (a, b))
    na, nb = len(ka), len(kb)
    rest_of_a, rest_of_b = keep(True, False), keep(False, True)
    i = j = 0
    in_a = in_b = on = False
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
                yield Piece(lo, x, not lo_key, f)
            on, lo, lo_key = not on, x, f


@dataclass(frozen=True)
class Region:
    """A finite union of flagged rational intervals intersected with K.

    The pieces are sorted, disjoint and maximal: no two of them overlap or
    touch at a point that one of them holds.  The Boolean operations merge
    the ends of two such tuples in one sweep and keep that form.  They act
    on the pieces as sets of the line, so A.difference(B) is not clipped to
    the hull of K; on K it is the same set.
    """

    space: CompactSet
    pieces: tuple[Piece, ...]

    @staticmethod
    def whole(space: CompactSet) -> "Region":
        lo, hi = space.hull
        return Region(space, (Piece(lo, hi, True, True),))

    @staticmethod
    def from_intervals(space: CompactSet, pairs,
                       closed: bool = True) -> "Region":
        ps = [Piece(rat(l), rat(r), closed, closed) for l, r in pairs]
        return Region(space, _normalize_pieces(ps))

    @staticmethod
    def from_pieces(space: CompactSet, pieces: Iterable[Piece]) -> "Region":
        return Region(space, _normalize_pieces(pieces))

    @staticmethod
    def cylinder(space: CompactSet, address: str) -> "Region":
        lo, hi = space.cylinder(address)
        return Region(space, (Piece(lo, hi, True, True),))

    # -- membership ---------------------------------------------------------

    def contains(self, x) -> bool:
        x = rat(x)
        if not self.space.contains(x):
            return False
        for p in self.pieces:
            if p.lo < x < p.hi:
                return True
            if x == p.lo and p.lo_closed:
                return True
            if x == p.hi and p.hi_closed:
                return True
        return False

    def _piece_meets_space(self, p: Piece) -> bool:
        # an interval meeting [p.lo, p.hi] in one point meets p if p holds it
        for l, r in self.space.meeting(p.lo, p.hi):
            if (max(l, p.lo) < min(r, p.hi) or (p.lo_closed or p.lo < l)
                    and (p.hi_closed or r < p.hi)):
                return True
        return False

    def is_empty(self) -> bool:
        return not any(self._piece_meets_space(p) for p in self.pieces)

    # -- boolean operations -------------------------------------------------

    def union(self, other: "Region") -> "Region":
        return Region(self.space, tuple(_sweep(self.pieces, other.pieces, operator.or_)))

    def intersect(self, other: "Region") -> "Region":
        return Region(self.space, tuple(_sweep(self.pieces, other.pieces, operator.and_)))

    def difference(self, other: "Region") -> "Region":
        # operator.gt on flags: in self and not in other
        return Region(self.space, tuple(_sweep(self.pieces, other.pieces, operator.gt)))

    def subset_of(self, other: "Region") -> bool:
        return not any(map(self._piece_meets_space,
                           _sweep(self.pieces, other.pieces, operator.gt)))

    def disjoint_from(self, other: "Region") -> bool:
        return not any(map(self._piece_meets_space,
                           _sweep(self.pieces, other.pieces, operator.and_)))

    def same_set(self, other: "Region") -> bool:
        return self.subset_of(other) and other.subset_of(self)

    # -- metric queries -----------------------------------------------------

    def infimum(self) -> Fraction:
        for p in self.pieces:
            for l, r in self.space.meeting(p.lo, p.hi):
                olo = max(l, p.lo)
                if self._piece_meets_space(Piece(olo, min(r, p.hi),
                                                 p.lo_closed or olo > p.lo,
                                                 True)):
                    return olo
        raise SpaceError("empty region has no infimum")

    def supremum(self) -> Fraction:
        for p in reversed(self.pieces):
            for l, r in reversed(self.space.meeting(p.lo, p.hi)):
                ohi = min(r, p.hi)
                if self._piece_meets_space(Piece(max(l, p.lo), ohi, True,
                                                 p.hi_closed or ohi < p.hi)):
                    return ohi
        raise SpaceError("empty region has no supremum")

    def diameter(self) -> Fraction:
        return self.supremum() - self.infimum()


def epsilon_neighborhood(points: Iterable, eps, space: CompactSet) -> Region:
    """The strict neighborhood {x in K : d(x, A) < eps}, exactly, of the
    rationals A (a PointSet or any iterable of them)."""
    eps = rat(eps)
    if eps <= 0:
        raise SpaceError("eps must be positive")
    pieces = [Piece(rat(p) - eps, rat(p) + eps, False, False) for p in points]
    return Region.from_pieces(space, pieces)
