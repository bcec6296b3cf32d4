"""Exact one-dimensional geometry.

Compact subsets of the line are finite unions of closed rational intervals,
optionally carrying an iterated-function-system descriptor that marks them as
the depth-d approximation of a self-similar Cantor set.  Regions are finite
unions of open/half-open/closed rational intervals intersected with such a
set; every membership and inclusion query is exact.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property, cmp_to_key
from math import gcd
from typing import Iterable, Optional, Sequence

from .rational import (affine, as_pair, clip, coprime_fraction, pair_cmp, pair_key,
                       pair_keys, place_left, place_right, rat, value_order)

MAX_INTERVALS = 2 ** 16  # the most cylinders intervals_at builds


class SpaceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# iterated function systems


class Ifs(namedtuple("Ifs", "ratios offsets symbols")):
    """Finitely many increasing affine contractions x -> ratio*x + offset.

    Maps are ordered left to right; their images of the convex hull must be
    disjoint.  ``symbols`` name the maps and form the address alphabet; each
    is one character, so an address has one character per level.  The
    instance dict holds the int pairs derived from the fields.
    """

    def __new__(cls, ratios: tuple, offsets: tuple, symbols: tuple[str, ...]):
        self = super().__new__(cls, ratios, offsets, symbols)
        if not (len(ratios) == len(offsets) == len(symbols)):
            raise SpaceError("IFS component lists must have equal length")
        if len(ratios) < 2:
            raise SpaceError("IFS needs at least two maps")
        for r in ratios:
            if not 0 < r < 1:
                raise SpaceError(f"IFS ratio {clip(r)} not in (0,1)")
        if len(set(symbols)) != len(symbols):
            raise SpaceError("IFS symbols must be distinct")
        if not all(isinstance(s, str) and len(s) == 1 for s in symbols):
            raise SpaceError(f"IFS symbols {symbols} are not all single characters")
        # in int pairs: the hull, ends o / (1 - r) = o * d / (d - n) for r = n/d;
        # the maps by symbol (for cylinder); the children, also as fractions
        # of the hull (for _child_pairs); for _expand and _cylinder_pairs, each
        # inverse map y -> (y - o) / r as p/q -> (p*a - q*b) / (q*c), where
        # r = c/a, with a, b and c coprime
        maps = [(as_pair(r), as_pair(o)) for r, o in zip(ratios, offsets)]
        lo, hi = (affine((d, d - n), o) for (n, d), o in (maps[0], maps[-1]))
        if pair_cmp(lo, hi) >= 0:
            raise SpaceError("degenerate IFS hull")
        children = tuple((affine(r, lo, o), affine(r, hi, o)) for r, o in maps)
        if any(pair_cmp(h1, l2) >= 0 for (_, h1), (l2, _) in zip(children, children[1:])):
            raise SpaceError("IFS images must be disjoint, left to right")
        wn, wd = affine(hi, (1, 1), (-lo[0], lo[1]))  # hi - lo
        shift = affine((wd, wn), (-lo[0], lo[1]))
        self._int_hull, self._int_children = (lo, hi), children
        self._int_maps = dict(zip(symbols, maps))
        self._unit_children = tuple(
            tuple(affine((wd, wn), x, shift) for x in c) for c in children)
        inverses = ((od * rd, on * rd, od * rn) for (rn, rd), (on, od) in maps)
        self._int_inverses = tuple(
            (a // g, b // g, c // g) for a, b, c in inverses for g in [gcd(a, b, c)])
        # a map of K may reverse orientation only if sigma phi_i sigma = phi_j,
        # for sigma(x) = c2 - x, c2 twice the hull's center, and j = n - 1 - i:
        # iff sigma carries child i onto child j, iff c2 - hi_i = lo_j
        c2 = affine((1, 1), lo, hi)
        self.symmetric = all(affine((-1, 1), b, c2) == a
                             for (_, b), (a, _) in zip(children, reversed(children)))
        return self

    def _child_pairs(self, lo: tuple, hi: tuple) -> list[tuple[tuple, tuple]]:
        """The child cylinders of the cylinder [lo, hi], left to right: the
        hull's children scaled into it, I_{w s} = phi_w(I_s).  The ends, in
        and out, are reduced int pairs."""
        k = affine(hi, (1, 1), (-lo[0], lo[1]))  # hi - lo
        return [(affine(k, a, lo), affine(k, b, lo)) for a, b in self._unit_children]

    def cylinder(self, address: str) -> tuple[tuple, tuple]:
        """The ends, as int pairs, of the cylinder addressed by a word over
        the symbols, read outermost-first: I_w = phi_w(hull), the map phi_w
        = phi_{w0} o phi_{w1} o ... composed as x -> r*x + o from the left."""
        r, o = (1, 1), (0, 1)
        for sym in address:
            if sym not in self._int_maps:
                raise SpaceError(f"address symbol {sym!r} not in the IFS "
                                 f"alphabet {self.symbols}")
            a, b = self._int_maps[sym]
            r, o = affine(r, a), affine(r, b, o)
        return tuple(affine(r, x, o) for x in self._int_hull)

    def check_depth(self, depth: int) -> None:
        """Refuse a negative depth, or one with more than MAX_INTERVALS cylinders."""
        if depth < 0:
            raise SpaceError("depth must be nonnegative")
        # an IFS has at least two maps, so 17 levels already pass the bound;
        # capping the exponent keeps a huge depth cheap to refuse
        if len(self.ratios) ** min(depth, 17) > MAX_INTERVALS:
            raise SpaceError(f"depth {depth} gives more than {MAX_INTERVALS} intervals")

    def intervals_at(self, depth: int) -> list[tuple[tuple, tuple]]:
        """The depth-d cylinders in address order, their ends int pairs,
        level by level through _child_pairs."""
        self.check_depth(depth)
        cells = [self._int_hull]
        for _ in range(depth):
            cells = [c for lo, hi in cells for c in self._child_pairs(lo, hi)]
        return cells

    def _expand(self, t: tuple):
        """The address of t, one level per step, as (levels, gap).

        t is a reduced int pair (numerator, denominator > 0), and so is each
        local coordinate.  levels[k] = (i, y): at depth k the point has local
        coordinate y and lies in child i; its global scale there is the
        product of the ratios of the children above it.  The expansion stops
        when y repeats, so t is a limit point with an eventually periodic
        address and gap is None; or when y falls between children g and
        g + 1 at depth k, and gap is (k, g, y), a bounded gap of the limit
        set.  Points off the hull give ([], None).
        """
        levels, seen = [], set()
        (an, ad), (bn, bd) = self._int_hull
        if not (an * t[1] <= t[0] * ad and t[0] * bd <= bn * t[1]):
            return levels, None
        children, inverses, y = self._int_children, self._int_inverses, t
        while y not in seen:
            seen.add(y)
            p, q = y
            for i, ((ln, ld), (hn, hd)) in enumerate(children):
                if p * hd <= hn * q:
                    break
            if p * ld < ln * q:
                return levels, (len(levels), i - 1, y)
            levels.append((i, y))
            a, b, c = inverses[i]
            p, q = p * a - q * b, q * c
            y = (p // (g := gcd(p, q)), q // g)
        return levels, None

    def contains_limit_point(self, x: Fraction) -> bool:
        """Exact membership of a rational in the limit (infinite-depth) set."""
        levels, gap = self._expand(as_pair(x))
        return bool(levels) and gap is None

    def _cylinder_pairs(self, lo: tuple, hi: tuple) -> Optional[list[tuple[str, tuple, tuple]]]:
        """Write [lo, hi] (intersected with the limit set) as a disjoint
        union of maximal cylinders, left to right as (address, lo, hi)
        triples, or None if the interval is not cylinder-aligned.  The ends,
        in and out, are reduced int pairs."""
        (ln, ld), (hn, hd) = lo, hi
        (an, ad), (bn, bd) = self._int_hull
        rows = tuple(zip(self._int_children, self._int_inverses, self.symbols))
        # descend while one child holds [lo, hi], read in the coordinates of the
        # cylinder reached (as _expand reads a point): it is that cylinder at
        # the hull's ends.  The coordinates [un/ud, vn/vd] are left unreduced
        addr, (un, ud), (vn, vd) = "", lo, hi
        while ln * hd < hn * ld and not (un * ad == an * ud and vn * bd == bn * vd):
            for ((cln, cld), (chn, chd)), (a, b, c), sym in rows:
                if cln * ud <= un * cld and vn * chd <= chn * vd:
                    un, ud, vn, vd = un * a - ud * b, ud * c, vn * a - vd * b, vd * c
                    addr += sym
                    break
            else:
                break
        if un * ad == an * ud and vn * bd == bn * vd:
            return [(addr, lo, hi)]
        # otherwise, descending from the hull, only cylinders holding lo or
        # hi without lying inside [lo, hi] are split.  Deeper than that
        # point's address expansion, no cylinder holds it, or one starts (lo)
        # or ends (hi) at it, or [lo, hi] is not cylinder-aligned at any depth
        max_depth = 1 + max(len(self._expand(x)[0]) for x in (lo, hi))
        parts, stack = [], [("", *self._int_hull)]
        while stack:
            addr, a, b = stack.pop()
            if hn * a[1] < a[0] * hd or b[0] * ld < ln * b[1]:
                continue
            if ln * a[1] <= a[0] * ld and b[0] * hd <= hn * b[1]:
                parts.append((addr, a, b))
            elif len(addr) >= max_depth:
                return None
            else:
                # a child cylinder is its parent's image of the child of the hull
                stack.extend((addr + s, *c) for s, c in zip(
                    self.symbols[::-1], self._child_pairs(a, b)[::-1]))
        return parts

    def _tiling_fault(self, cyls: list) -> Optional[str]:
        """Why the cylinders do not tile the limit set, or None when they
        do: they tile it iff they are disjoint and their addresses form a
        complete prefix code, whose sum of n^-len(address) over n maps is 1
        (the equality case of Kraft's inequality).  A row is (lo, hi,
        address, cylinder): an interval that must be the cylinder found for
        it.  All on int pairs."""
        # sorted by (lo, hi), as cylinders equal in both fail as overlapping
        cyls = [cyls[i] for i in value_order([c[:2] for c in cyls])]
        if (cyls[0][0], cyls[-1][1]) != self._int_hull:
            return "do not reach the extremes"
        n, top = len(self.symbols), max(len(c[2]) for c in cyls)
        if (any(c[:2] != c[3] for c in cyls)
                or any(pair_cmp(c[1], d[0]) >= 0 for c, d in zip(cyls, cyls[1:]))
                or sum(n ** (top - len(c[2])) for c in cyls) != n ** top):
            return "do not tile the limit set"
        return None


# ---------------------------------------------------------------------------
# compact sets


def _normalize_intervals(pairs) -> tuple[tuple[tuple, tuple], ...]:
    cleaned = []
    for l, r in pairs:
        l, r = rat(l), rat(r)
        if l > r:
            raise SpaceError(f"interval [{clip(l)}, {clip(r)}] reversed")
        cleaned.append(Piece(l, r, True, True))
    if not cleaned:
        raise SpaceError("empty interval list")
    return tuple(p[:2] for p in _normalize_pieces(cleaned))


class CompactSet(namedtuple("CompactSet", "ends ifs depth", defaults=(None, 0))):
    """Finite union of disjoint closed rational intervals, sorted.  `ends`
    holds them as pairs of reduced (numerator, denominator > 0) int pairs;
    intervals and hull are Fraction views of it."""

    @staticmethod
    def from_intervals(pairs) -> "CompactSet":
        return CompactSet(_normalize_intervals(pairs))

    @staticmethod
    def from_ifs(ifs: Ifs, depth: int) -> "CompactSet":
        return CompactSet(tuple(ifs.intervals_at(depth)), ifs=ifs, depth=depth)

    # -- basic queries ------------------------------------------------------

    intervals = property(lambda s: tuple(
        (coprime_fraction(*l), coprime_fraction(*r)) for l, r in s.ends))
    hull = property(lambda s: (coprime_fraction(*s.ends[0][0]), coprime_fraction(*s.ends[-1][1])))

    @cached_property
    def _lo_keys(self) -> tuple:
        """The pair_keys of the intervals' left ends."""
        return pair_keys([l for l, _ in self.ends])

    @cached_property
    def _hi_keys(self) -> tuple:
        """The pair_keys of the intervals' right ends."""
        return pair_keys([r for _, r in self.ends])

    def _holds(self, x: tuple) -> bool:
        """Whether K holds the int pair x."""
        i = place_right(self._lo_keys, x) - 1
        return i >= 0 and pair_cmp(x, self.ends[i][1]) <= 0

    def _meeting(self, lo: tuple, hi: tuple) -> list:
        """The intervals that meet [lo, hi], found by bisection; all int pairs."""
        return list(self.ends[place_left(self._hi_keys, lo):place_right(self._lo_keys, hi)])

    def contains_limit_point(self, x: Fraction) -> bool:
        """Membership in the underlying limit set (K itself when the set
        carries no IFS structure)."""
        return self._holds(as_pair(x)) if self.ifs is None else self.ifs.contains_limit_point(x)


def measure_cells(space: CompactSet, depth: int):
    """Depth-d cells as closed intervals, their ends int pairs (the space's
    intervals at its own depth, or when no IFS structure is available)."""
    if space.ifs is not None and depth != space.depth:
        return space.ifs.intervals_at(depth)
    return list(space.ends)


@cache
def ternary_cantor(depth: int) -> CompactSet:
    """Depth-d approximation of the middle-thirds Cantor set in [0, 1], one
    per depth: a depth refused raises on every call and is never cached."""
    ifs = Ifs(ratios=(Fraction(1, 3), Fraction(1, 3)),
              offsets=(Fraction(0), Fraction(2, 3)),
              symbols=("0", "2"))
    return CompactSet.from_ifs(ifs, depth)


# ---------------------------------------------------------------------------
# regions


class Piece(tuple):
    """(lo, hi, lo_closed, hi_closed): an interval, its ends as reduced int
    pairs, and whether it holds each end.  lo and hi are Fraction views;
    Piece._make builds one from a tuple of pair ends and flags."""

    __slots__ = ()
    _make = classmethod(tuple.__new__)

    def __new__(cls, lo, hi, lo_closed: bool, hi_closed: bool):
        return tuple.__new__(cls, (as_pair(lo), as_pair(hi), lo_closed, hi_closed))

    lo, hi = (property(lambda p, i=i: coprime_fraction(*p[i])) for i in (0, 1))


def _normalize_pieces(pieces: Iterable[Piece]) -> tuple[Piece, ...]:
    """A bag of pieces as sorted, disjoint and maximal ones."""
    # by left end, a closed one first at equal ends
    ps = sorted((p for p in pieces if (c := pair_cmp(p[0], p[1])) < 0
                 or c == 0 and p[2] and p[3]),
                key=cmp_to_key(lambda p, q: pair_cmp(p[0], q[0]) or q[2] - p[2]))
    out: list[Piece] = []
    for p in ps:
        if out:
            q = out[-1]
            if (c := pair_cmp(p[0], q[1])) < 0 or c == 0 and (q[3] or p[2]):
                if (c := pair_cmp(p[1], q[1])) > 0 or c == 0 and p[3]:
                    out[-1] = Piece._make((q[0], p[1], q[2], p[3]))
                continue
        out.append(p)
    return tuple(out)


def _sweep(a: Sequence[Piece], b: Sequence[Piece], keep):
    """The pieces, left to right, where keep(in a, in b) holds, for a and b
    sorted, disjoint and maximal and keep(False, False) false.

    An end is a key (x, 0) just before x or (x, 1) just after it: a piece
    runs from (lo, not lo_closed) to (hi, hi_closed).  The keys of a and b
    are merged in order (x by cross-multiplication) and ends of both at one
    key toggle together, so the pieces yielded are sorted, disjoint and
    maximal.  The merge stops when an operand has no ends left and keep is
    false outside it.
    """
    ka, kb = ([k for lo, hi, lc, hc in ps for k in ((lo, not lc), (hi, hc))]
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
            ((xn, xd), f), ((yn, yd), g) = ka[i], kb[j]
            c = xn * yd - yn * xd
            if c == 0:
                step_a, step_b = f <= g, g <= f
            else:
                step_a = c < 0
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
                yield Piece._make((lo, x, not lo_key, f))
            on, lo, lo_key = not on, x, f


def _meets(p: Piece, l: tuple, r: tuple) -> bool:
    """Whether p holds a point of [l, r], an interval meeting [p.lo, p.hi]:
    they overlap in more than a point, or in a point that p holds."""
    lo, hi, lo_closed, hi_closed = p
    return (pair_cmp(l, r) < 0 and pair_cmp(l, hi) < 0 and pair_cmp(lo, r) < 0
            and pair_cmp(lo, hi) < 0 or (lo_closed or pair_cmp(lo, l) < 0)
            and (hi_closed or pair_cmp(r, hi) < 0))


class Region(namedtuple("Region", "space pieces")):
    """A finite union of flagged rational intervals intersected with K.

    The pieces are sorted, disjoint and maximal: no two of them overlap or
    touch at a point that one of them holds.  The Boolean operations merge
    the ends of two such tuples in one sweep and keep that form.  They act
    on the pieces as sets of the line, so A.difference(B) is not clipped to
    the hull of K; on K it is the same set.
    """

    @staticmethod
    def whole(space: CompactSet) -> "Region":
        return Region(space, (Piece._make((space.ends[0][0], space.ends[-1][1], True, True)),))

    @staticmethod
    def from_pieces(space: CompactSet, pieces: Iterable[Piece]) -> "Region":
        return Region(space, _normalize_pieces(pieces))

    # -- membership ---------------------------------------------------------

    @cached_property
    def _lo_keys(self) -> tuple:
        """The pair_keys of the pieces' left ends."""
        return pair_keys([p[0] for p in self.pieces])

    def _pieces_hold(self, x: tuple) -> bool:
        """Whether a piece holds the int pair x: the last that starts at or before it."""
        i = place_right(self._lo_keys, x) - 1
        return i >= 0 and pair_cmp(x, self.pieces[i][1]) <= 0 and _meets(self.pieces[i], x, x)

    def _piece_meets_space(self, p: Piece) -> bool:
        return any(_meets(p, l, r) for l, r in self.space._meeting(p[0], p[1]))

    def _meets_where(self, pieces: Sequence[Piece], keep) -> bool:
        """Whether K has a point where keep(in self, in the sorted, disjoint pieces)."""
        return any(map(self._piece_meets_space, _sweep(self.pieces, pieces, keep)))

    def _covers(self, p: Piece, sweep: bool = True) -> Optional[bool]:
        """Whether every point of K in the piece p lies in self: yes when p
        lies in the one piece that starts at or before it, flags included, no
        when p holds an end in K outside self, and else the sweep on K
        decides, or None when not asked to sweep."""
        (pn, pd), (qn, qd), p_lo_closed, p_hi_closed = p
        i = place_right(self._lo_keys, p[0]) - 1
        if i >= 0:
            (ln, ld), (hn, hd), lo_closed, hi_closed = self.pieces[i]
            # the bisection puts that piece's lo at or before p's
            if (ln * pd < pn * ld or lo_closed >= p_lo_closed) and (
                    (c := qn * hd - hn * qd) < 0 or c == 0 and hi_closed >= p_hi_closed):
                return True
        if any(held and self.space._holds(x) and not self._pieces_hold(x)
               for x, held in ((p[0], p_lo_closed), (p[1], p_hi_closed))):
            return False
        # operator.lt on flags: in p and not in self
        return not self._meets_where((p,), operator.lt) if sweep else None

    def is_empty(self) -> bool:
        return not any(map(self._piece_meets_space, self.pieces))

    # -- boolean operations -------------------------------------------------

    def union(self, other: "Region") -> "Region":
        return Region(self.space, tuple(_sweep(self.pieces, other.pieces, operator.or_)))

    def intersect(self, other: "Region") -> "Region":
        return Region(self.space, tuple(_sweep(self.pieces, other.pieces, operator.and_)))

    def difference(self, other: "Region") -> "Region":
        # operator.gt on flags: in self and not in other
        return Region(self.space, tuple(_sweep(self.pieces, other.pieces, operator.gt)))

    def subset_of(self, other: "Region") -> bool:
        return not self._meets_where(other.pieces, operator.gt)

    def disjoint_from(self, other: "Region") -> bool:
        return not self._meets_where(other.pieces, operator.and_)

    def _parts(self) -> list:
        """The closed int-pair spans, left to right, that the pieces cut from K's intervals."""
        return [(max(l, p[0], key=pair_key), min(r, p[1], key=pair_key))
                for p in self.pieces for l, r in self.space._meeting(p[0], p[1])
                if _meets(p, l, r)]


def epsilon_neighborhood(points: Iterable, eps, space: CompactSet) -> Region:
    """The strict neighborhood {x in K : d(x, A) < eps}, exactly, of the
    rationals A."""
    eps = rat(eps)
    if eps <= 0:
        raise SpaceError("eps must be positive")
    e, minus_e = as_pair(eps), (-eps.numerator, eps.denominator)
    return Region.from_pieces(space, [Piece._make((affine((1, 1), minus_e, x), affine(
        (1, 1), e, x), False, False)) for x in map(as_pair, map(rat, points))])
