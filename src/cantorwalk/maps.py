"""Piecewise-affine locally monotonic homeomorphisms of a CompactSet.

A PAHomeo is a finite list of affine branches x -> slope*x + offset, each on
a closed rational source interval.  Together the branches restrict to a
bijection of the ambient set onto itself, which is verified exactly at
construction.  For IFS-structured sets the bijection is of the underlying
limit set: branch sources and images must be cylinder-aligned and end on
it, so that each branch carries limit points to limit points.  On a plain
set (no IFS) branches are stored cut at the gaps of K, and the sources and
the images each tile K.  So no two branch images overlap on either kind of
set; compose and invert keep that, as they only subdivide both.

Break pairs are computed exactly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .rational import (affine, as_pair, clip, coprime_fraction, pair_cmp, pair_key,
                       pair_keys, place_left, place_right, rat, value_order)
from .space import CompactSet, Piece, Region


class MapError(ValueError):
    pass


def _inverse(s: tuple, o: tuple) -> tuple:
    """The slope and offset pairs of y -> (y - o) / s."""
    t = (s[1], s[0]) if s[0] > 0 else (-s[1], -s[0])
    return t, affine(t, (-o[0], o[1]))


class Branch(tuple):
    """x -> slope*x + offset on the closed source [lo, hi]: the reduced
    (numerator, denominator > 0) int pairs lo, hi, slope, offset and the
    sorted image ends, which equality compares and the kernels unpack.
    Branch._make builds one from those six pairs, Branch(lo, hi, slope,
    offset) from rationals or their pairs; lo, hi, slope, offset and ends
    are Fraction views."""

    __slots__ = ()
    _make = classmethod(tuple.__new__)

    def __new__(cls, lo, hi, slope, offset):
        lo, hi, s, o = (v if type(v) is tuple else (v.numerator, v.denominator)
                        for v in (lo, hi, slope, offset))
        a, b = affine(s, lo, o), affine(s, hi, o)
        return tuple.__new__(cls, (lo, hi, s, o) + ((a, b) if pair_cmp(a, b) <= 0 else (b, a)))

    lo, hi, slope, offset = (property(lambda b, i=i: coprime_fraction(*b[i])) for i in range(4))
    ends = property(lambda b: tuple(coprime_fraction(*p) for p in b[4:]))

    def value(self, x: Fraction) -> Fraction:
        return coprime_fraction(*affine(self[2], as_pair(x), self[3]))

    def preimage(self, y: Fraction) -> Fraction:
        t, u = _inverse(self[2], self[3])
        return coprime_fraction(*affine(t, as_pair(y), u))


def inverse_name(name: str) -> str:
    return name[:-3] if name.endswith("^-1") else name + "^-1"


class PAHomeo(namedtuple("PAHomeo", "space branches label")):
    """Branches sorted by source, and the letters of the word the map is;
    the instance dict holds the caches."""

    @cached_property
    def _lo_keys(self) -> tuple:
        """The pair_keys of the branch sources' left ends."""
        return pair_keys([b[0] for b in self.branches])

    @cached_property
    def _hi_keys(self) -> tuple:
        """The pair_keys of the branch sources' right ends."""
        return pair_keys([b[1] for b in self.branches])

    @cached_property
    def _image_order(self) -> list:
        """The branch indices in the order of their images, which do not overlap."""
        return value_order([b[4:5] for b in self.branches])

    @cached_property
    def _push_rows(self) -> tuple:
        """Per branch, in source order, what _push_runs reads: the source
        ends, whether it increases, x -> (a*xn + b*xd) / (c*xd) as a, b, c,
        and the images of the source's lo and hi."""
        return tuple((lo, hi, sn > 0, sn * od, on * sd, sd * od)
                     + ((ya, yb) if sn > 0 else (yb, ya))
                     for lo, hi, (sn, sd), (on, od), ya, yb in self.branches)

    def _branch_at(self, x: tuple) -> tuple:
        """The branch whose source holds the int pair x; raises off them.

        When two branches share the point x they must agree there for x in
        the ambient set; the right one is returned.
        """
        bs = self.branches
        i = place_right(self._lo_keys, x) - 1
        if i >= 0 and pair_cmp(x, bs[i][1]) <= 0:
            return bs[i]
        raise MapError(f"{clip(coprime_fraction(*x))} is not in any branch source")


def _apply(f: PAHomeo, x: tuple) -> tuple:
    """f at the int pair x, a point of its ambient set, as an int pair."""
    if not f.space._holds(x):
        raise MapError(f"{clip(coprime_fraction(*x))} not in the ambient set")
    _, _, s, o, _, _ = f._branch_at(x)
    return affine(s, x, o)


def apply(f: PAHomeo, x) -> Fraction:
    """Evaluate f at a point of its ambient set."""
    return coprime_fraction(*_apply(f, as_pair(rat(x))))


def orbit_bfs(seeds: Iterable[Fraction], steps: Sequence[Callable],
              rounds: Optional[int] = None, cap: Optional[int] = None):
    """Breadth-first closure of the seed points under the step functions.

    A step maps a point to a point.  Expands `rounds` times (None: until
    no new point appears) and returns (points in discovery order, points
    found in the last round), or None when more than `cap` points are
    known before a round.
    """
    order = list(dict.fromkeys(seeds))
    known, frontier, k = set(order), order, 0
    while frontier and (rounds is None or k < rounds):
        if cap is not None and len(known) > cap:
            return None
        nxt = []
        for p in frontier:
            for step in steps:
                q = step(p)
                if q not in known:
                    known.add(q)
                    nxt.append(q)
        order, frontier, k = order + nxt, nxt, k + 1
    return order, frontier


# ---------------------------------------------------------------------------
# construction and validation


def _tiles(K: CompactSet, ivs: Sequence[tuple]) -> bool:
    """Whether the closed intervals ivs, int pairs of positive length, run
    through each interval of K end to end when sorted: from K's least to
    its greatest point, each starting where the one before ended, or past
    a right end of K at the next left end, every gap of K taken in order."""
    ivs, ends = [ivs[i] for i in value_order([iv[:1] for iv in ivs])], K.ends
    jumps = [(p[1], q[0]) for p, q in zip(ivs, ivs[1:]) if p[1] != q[0]]
    return bool(ivs) and (ivs[0][0], ivs[-1][1]) == (ends[0][0], ends[-1][1]) and (
        jumps == [(r, l) for (_, r), (l, _) in zip(ends, ends[1:])])


def _cut(K: CompactSet, b: Branch) -> list[Branch]:
    """b clipped to each interval of K that it meets in more than a point."""
    lo, hi, s, o = b[:4]
    out = []
    for kl, kr in K._meeting(lo, hi):
        l, r = max(kl, lo, key=pair_key), min(kr, hi, key=pair_key)
        if pair_cmp(l, r) < 0:
            out.append(Branch(l, r, s, o))
    return out


def _validate_ifs(space: CompactSet, branches: Sequence[Branch]) -> None:
    """Bijectivity of the limit set: every branch source decomposes into
    cylinders, each mapped affinely onto a single cylinder, and the source
    and the image cylinders each tile the limit set, as Ifs._tiling_fault
    decides.  All on int pairs."""
    ifs = space.ifs
    if not ifs.symmetric and any(b[2][0] < 0 for b in branches):
        raise MapError("orientation-reversing branch on an asymmetric IFS")
    img_cyls, src_cyls = [], []
    for b in branches:
        lo, hi, s, o, _, _ = b
        parts = ifs._cylinder_pairs(lo, hi)
        if not parts or (parts[0][1], parts[-1][2]) != (lo, hi):
            raise MapError(f"branch source [{clip(b.lo)}, {clip(b.hi)}] " + (
                "does not end on the limit set" if parts else "not cylinder-aligned"))
        for w, clo, chi in parts:
            src_cyls.append((clo, chi, w, (clo, chi)))
            ia, ib = (affine(s, x, o) for x in ((clo, chi) if s[0] > 0 else (chi, clo)))
            dec = ifs._cylinder_pairs(ia, ib)
            if dec is None or len(dec) != 1:
                raise MapError(f"image of cylinder {w or 'hull'} is not a cylinder")
            img_cyls.append((ia, ib, dec[0][0], dec[0][1:]))
    for what, cyls in (("source", src_cyls), ("image", img_cyls)):
        if fault := ifs._tiling_fault(cyls):
            raise MapError(f"{what} cylinders {fault}")


def pa_homeo(space: CompactSet, branches: Iterable[Branch],
             label: tuple[str, ...] = ()) -> PAHomeo:
    bs = list(branches)
    bs = [bs[i] for i in value_order([b[:2] for b in bs])]
    if not bs:
        raise MapError("a map needs at least one branch")
    for b in bs:
        (ln, ld), (hn, hd), s = b[:3]
        if s[0] == 0:
            raise MapError("zero slope")
        if ln * hd >= hn * ld:
            raise MapError("degenerate branch source")
    for b1, b2 in zip(bs, bs[1:]):
        if pair_cmp(b2[0], b1[1]) < 0:
            raise MapError("branch sources overlap")
    if space.ifs is not None:
        # limit-set coverage is part of the source antichain check;
        # sources may legitimately split across gaps of deeper cylinders
        _validate_ifs(space, bs)
    else:
        for b1, b2 in zip(bs, bs[1:]):
            (_, x, s, o), (y, _, t, u) = b1[:4], b2[:4]
            # where two branches as given share a point of K, they must agree
            if x == y and space._holds(x) and affine(s, x, o) != affine(t, x, u):
                raise MapError(f"branches disagree at {clip(b1.hi)}")
        bs = [piece for b in bs for piece in _cut(space, b)]
        if not _tiles(space, [b[:2] for b in bs]):
            raise MapError("branch sources do not tile the ambient set")
        if not _tiles(space, [b[4:] for b in bs]):
            raise MapError("branch images do not tile the ambient set")
    return PAHomeo(space, tuple(bs), tuple(label))


# ---------------------------------------------------------------------------
# prefix tables


class PrefixTable(NamedTuple):
    """Rules (source address, target address, sign) over an IFS alphabet."""

    rules: tuple[tuple[str, str, int], ...]


def from_prefix_table(table: PrefixTable, K: CompactSet,
                      label: tuple[str, ...] = ()) -> PAHomeo:
    if K.ifs is None:
        raise MapError("prefix tables need an IFS-structured set")
    maxlen = max((max(len(s), len(d)) for s, d, _ in table.rules), default=0)
    if K.depth < maxlen:
        raise MapError(f"depth {K.depth} too small for addresses of length {maxlen}")
    branches = []
    for src, dst, sign in table.rules:
        if sign not in (1, -1):
            raise MapError(f"bad orientation {sign!r}")
        slo, shi = K.ifs.cylinder(src)
        dlo, dhi = K.ifs.cylinder(dst)
        # slope sign * (dhi - dlo) / (shi - slo); slo goes to dlo, or to dhi
        # when decreasing
        (dn, dd), (sn, sd) = (affine((1, 1), b, (-a[0], a[1]))
                              for a, b in ((dlo, dhi), (slo, shi)))
        s = affine((sign * dn * sd, dd), (1, sn))
        o = affine((-s[0], s[1]), slo, dlo if sign == 1 else dhi)
        branches.append(Branch._make((slo, shi, s, o, dlo, dhi)))
    # pa_homeo rejects sources or targets that do not tile the limit set
    return pa_homeo(K, branches, label=label)


# ---------------------------------------------------------------------------
# group operations


def compose(f: PAHomeo, g: PAHomeo) -> PAHomeo:
    """The map f∘g (g applied first), not re-validated: a composition of
    valid maps is valid.  On int pairs, a branch of g whose image lies in one
    source of f keeps its source, a cut one takes g's preimages of the cuts,
    and f gives the image ends; pieces come out in source order.  An affine
    map is x -> (a*xn + b*xd) / (c*xd) on x = xn/xd, reduced in line."""
    fq, out, make = f.branches, [], Branch._make
    for glo, ghi, (sn, sd), (on, od), ia, ib in g.branches:
        (an, ad), (bn, bd), up = ia, ib, sn > 0
        # g^-1 as y -> (p*yn + q*yd) / (r*yd), r > 0
        p, q, r = (od * sd, -on * sd, od * sn) if up else (-od * sd, on * sd, -od * sn)
        pieces = []
        for (ln, ld), (hn, hd), (tn, td), (un, ud), ea, eb in fq[place_right(f._hi_keys, ia):]:
            if ln * bd >= bn * ld:
                break
            a, b, c = tn * ud, un * td, td * ud  # f
            if ln * ad > an * ld:  # f's source starts inside g's image: cut there
                n, d = p * ln + q * ld, r * ld
                xa, ya = (n // (k := gcd(n, d)), d // k), (eb if tn < 0 else ea)
            else:
                n, d = a * an + b * ad, c * ad
                xa, ya = (glo if up else ghi), (n // (k := gcd(n, d)), d // k)
            if hn * bd < bn * hd:  # f's source ends inside g's image: cut there
                n, d = p * hn + q * hd, r * hd
                xb, yb = (n // (k := gcd(n, d)), d // k), (ea if tn < 0 else eb)
            else:
                n, d = a * bn + b * bd, c * bd
                xb, yb = (ghi if up else glo), (n // (k := gcd(n, d)), d // k)
            n, d, m, e = tn * sn, td * sd, a * on + b * od, c * od
            pieces.append(make(((xa, xb) if up else (xb, xa)) + (
                (n // (k := gcd(n, d)), d // k), (m // (k := gcd(m, e)), e // k))
                + ((ya, yb) if tn > 0 else (yb, ya))))
        out += pieces if up else reversed(pieces)
    return PAHomeo(f.space, tuple(out), f.label + g.label)


def invert_branches(branches: Iterable[Branch]) -> tuple[Branch, ...]:
    """The inverse branches y -> (y - offset) / slope on the images, sorted."""
    inv = [Branch._make(b[4:] + _inverse(b[2], b[3]) + b[:2]) for b in branches]
    return tuple(inv[i] for i in value_order([b[:1] for b in inv]))


def invert(f: PAHomeo) -> PAHomeo:
    label = tuple(inverse_name(n) for n in reversed(f.label))
    return PAHomeo(f.space, invert_branches(f.branches), label)


def _affine_pieces(f: PAHomeo) -> list[tuple]:
    """f's maximal affine pieces: each run of neighbouring branches with one
    slope and offset, as the int pairs (lo, hi, slope, offset)."""
    out = []
    for lo, hi, s, o, _, _ in f.branches:
        if out and out[-1][2:] == (s, o):
            out[-1] = (out[-1][0], hi, s, o)
        else:
            out.append((lo, hi, s, o))
    return out


def equals(f: PAHomeo, g: PAHomeo) -> bool:
    """Equality as maps restricted to the ambient set.  Every branch source
    ends in K and meets it in more than a point (cylinder-aligned on an IFS
    set, cut at K's gaps on a plain one), so the affine map on each source
    is fixed by its values on K, and two maps agree on K exactly when their
    maximal affine pieces are the same."""
    return f.space == g.space and _affine_pieces(f) == _affine_pieces(g)


# ---------------------------------------------------------------------------
# break pairs


class BreakPair(NamedTuple):
    a: Fraction
    b: Fraction


def break_pairs(f: PAHomeo) -> list[BreakPair]:
    """The gaps of the (limit) set whose image pair bounds no gap.

    Sources and images tile the (limit) set, consecutive ones bounding a
    gap or touching inside an interval of a plain set, and a branch carries
    a gap inside its source (only on an IFS set) onto a gap.  So the
    candidate gaps are the (p.hi, q.lo) of consecutive sources p, q that do
    not touch, and, as a point of the set ends at most one gap, f(p.hi),
    f(q.lo) bound a gap iff they are I.hi, J.lo for consecutive sorted
    images I, J.  All on int pairs.
    """
    bs = f.branches
    imgs = [bs[i][4:] for i in f._image_order]
    gaps = {(i[1], j[0]) for i, j in zip(imgs, imgs[1:])}
    # f(p.hi) is p's upper image end, and f(q.lo) q's lower one, iff increasing
    candidates = [((p[1], q[0]), (p[4 + (p[2][0] > 0)], q[5 - (q[2][0] > 0)]))
                  for p, q in zip(bs, bs[1:]) if p[1] != q[0]]
    return [BreakPair(coprime_fraction(*a), coprime_fraction(*b))
            for (a, b), (u, v) in candidates if (u, v) not in gaps and (v, u) not in gaps]


def break_points(f: PAHomeo) -> list[Fraction]:
    """The ends of f's break pairs, each once, sorted as int pairs."""
    ends = {as_pair(x): x for p in break_pairs(f) for x in (p.a, p.b)}
    xs = list(ends)
    return [ends[xs[i]] for i in value_order([(x,) for x in xs])]


# ---------------------------------------------------------------------------
# images


def _image_pieces(f: PAHomeo, S: Region):
    """The images of S's pieces clipped to f's branch sources, each with the
    index of its branch; the pieces of one branch come in source order."""
    bs, lo_keys, hi_keys = f.branches, f._lo_keys, f._hi_keys
    for plo, phi, plo_closed, phi_closed in S.pieces:
        (pln, pld), (phn, phd), j = plo, phi, place_left(hi_keys, plo)
        for i, (blo, bhi, (sn, sd), (on, od), ea, eb) in enumerate(
                bs[j:place_right(lo_keys, phi)], j):
            # clip the piece to a closed branch source; the bisection makes them meet
            holds_lo = (c := pln * blo[1] - blo[0] * pld) < 0 or c == 0 and plo_closed
            holds_hi = (c := bhi[0] * phd - phn * bhi[1]) < 0 or c == 0 and phi_closed
            if holds_lo and holds_hi:
                yield i, Piece._make((ea, eb, True, True))
                continue
            # the branch as x -> (a*xn + b*xd) / (c*xd), reduced in line
            a, b, c, up = sn * od, on * sd, sd * od, sn > 0
            if holds_lo:
                lo, lo_closed, va = blo, True, (ea if up else eb)
            else:
                n, d = a * pln + b * pld, c * pld
                lo, lo_closed, va = plo, plo_closed, (n // (k := gcd(n, d)), d // k)
            if holds_hi:
                hi, hi_closed, vb = bhi, True, (eb if up else ea)
            else:
                n, d = a * phn + b * phd, c * phd
                hi, hi_closed, vb = phi, phi_closed, (n // (k := gcd(n, d)), d // k)
            if lo == hi and not (lo_closed and hi_closed):
                continue
            yield i, Piece._make((va, vb, lo_closed, hi_closed) if up
                                 else (vb, va, hi_closed, lo_closed))


def image(f: PAHomeo, S: Region) -> Region:
    """Exact image region of S∩K under f, with no sort: the pieces of each
    branch, reversed in a decreasing one, taken in the image order of the
    branches, which do not overlap, come out sorted, and neighbours that
    touch at a point one of them holds merge."""
    bs, buckets = f.branches, [[] for _ in f.branches]
    for i, p in _image_pieces(f, S):
        buckets[i].append(p)
    out = []
    for i in f._image_order:
        for p in (buckets[i] if bs[i][2][0] > 0 else reversed(buckets[i])):
            if out and p[0] == (q := out[-1])[1] and (q[3] or p[2]):
                out[-1] = Piece._make((q[0], p[1], q[2], p[3]))
            else:
                out.append(p)
    return Region(f.space, tuple(out))


def _push_runs(g: PAHomeo, runs: list) -> list:
    """The runs after one more letter g: each run cut at g's sources, its
    pieces mapped and taken in branch image order (reversed in a decreasing
    branch), which sorts them as no two images overlap; neighbours with one
    tag merge.  Each branch's constants come from g._push_rows, built once
    per letter."""
    rows, order = g._push_rows, g._image_order
    pieces, j, nb = [[] for _ in rows], 0, len(rows)
    for (ln, ld), (hn, hd), tag in runs:
        while rows[j][1][0] * ld < ln * rows[j][1][1]:
            j += 1
        i = j
        while i < nb:
            (bln, bld), (bhn, bhd), up, a, b, c, ylo, yhi = rows[i]
            if bln * hd > hn * bld:
                break
            # the branch as x -> (a*xn + b*xd) / (c*xd), reduced in line
            if bln * ld <= ln * bld:
                n, d = a * ln + b * ld, c * ld
                ya = (n // (k := gcd(n, d)), d // k)
            else:
                ya = ylo
            if bhn * hd >= hn * bhd:
                n, d = a * hn + b * hd, c * hd
                yb = (n // (k := gcd(n, d)), d // k)
            else:
                yb = yhi
            pieces[i].append((ya, yb, tag) if up else (yb, ya, tag))
            i += 1
    out, last = [], None
    for i in order:
        for p in (pieces[i] if rows[i][2] else reversed(pieces[i])):
            if p[2] == last:
                out[-1] = (out[-1][0], p[1], last)
            else:
                out.append(p)
                last = p[2]
    return out


def maps_into(f: PAHomeo, S: Region, T: Region) -> bool:
    """image(f, S).subset_of(T), stopping at the first piece outside T."""
    return all(map(T._covers, (p for _, p in _image_pieces(f, S))))
