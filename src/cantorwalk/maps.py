"""Piecewise-affine locally monotonic homeomorphisms of a CompactSet.

A PAHomeo is a finite list of affine branches x -> slope*x + offset, each on
a closed rational source interval.  Together the branches restrict to a
bijection of the ambient set onto itself, which is verified exactly at
construction.  For IFS-structured sets the bijection is of the underlying
limit set: branch sources and images must be cylinder-aligned, so that each
branch carries limit points to limit points.

Break pairs, the regularity radius r0, slope ranges and distortion are all
computed exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .rational import rat
from .space import CompactSet, Piece, Region, _normalize_intervals


class MapError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Branch:
    lo: Fraction
    hi: Fraction
    slope: Fraction
    offset: Fraction
    ends: tuple[Fraction, Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = self.value(self.lo), self.value(self.hi)
        object.__setattr__(self, "ends", (a, b) if a <= b else (b, a))

    def value(self, x: Fraction) -> Fraction:
        return self.slope * x + self.offset

    def preimage(self, y: Fraction) -> Fraction:
        return (y - self.offset) / self.slope

    def image_interval(self) -> tuple[Fraction, Fraction]:
        """The sorted ends of the image, computed once at construction."""
        return self.ends


def inverse_name(name: str) -> str:
    return name[:-3] if name.endswith("^-1") else name + "^-1"


@dataclass(frozen=True)
class PAHomeo:
    space: CompactSet
    branches: tuple[Branch, ...]
    label: tuple[str, ...] = ()

    @cached_property
    def _src_los(self) -> list:
        return [b.lo for b in self.branches]

    @cached_property
    def _src_his(self) -> list:
        return [b.hi for b in self.branches]

    def branch_at(self, x: Fraction) -> Branch:
        """The branch whose source contains x; raises off the sources.

        When two branches share the point x they must agree there for x in
        the ambient set; the left one is returned.
        """
        i = bisect.bisect_right(self._src_los, x) - 1
        if 0 <= i and self.branches[i].lo <= x <= self.branches[i].hi:
            return self.branches[i]
        j = i + 1
        if j < len(self.branches) and self.branches[j].lo <= x <= self.branches[j].hi:
            return self.branches[j]
        raise MapError(f"{x} is not in any branch source")

    def __call__(self, x) -> Fraction:
        return apply(self, x)


def apply(f: PAHomeo, x) -> Fraction:
    """Evaluate f at a point of its ambient set."""
    x = rat(x)
    if not f.space.contains(x):
        raise MapError(f"{x} not in the ambient set")
    return f.branch_at(x).value(x)


def orbit_bfs(seeds: Iterable[Fraction], steps: Sequence[Callable],
              rounds: Optional[int] = None, cap: Optional[int] = None):
    """Breadth-first closure of the seed points under the step functions.

    A step maps a point to a point, or to None where it is undefined.
    Expands `rounds` times (None: until no new point appears) and returns
    (points in discovery order, points found in the last round), or None
    when more than `cap` points are known before a round.
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
                if q is not None and q not in known:
                    known.add(q)
                    nxt.append(q)
        order, frontier, k = order + nxt, nxt, k + 1
    return order, frontier


# ---------------------------------------------------------------------------
# construction and validation


def _validate_plain(space: CompactSet, branches: Sequence[Branch]) -> None:
    """Bijectivity onto K for a set without IFS structure: the branch
    images of K material tile K exactly (merged equality + length count)."""
    imgs = []
    total = Fraction(0)
    for b in branches:
        for kl, kr in space.meeting(b.lo, b.hi):
            olo, ohi = max(kl, b.lo), min(kr, b.hi)
            if olo < ohi:
                ia, ib = b.value(olo), b.value(ohi)
                imgs.append((ia, ib) if ia <= ib else (ib, ia))
                total += abs(b.slope) * (ohi - olo)
    if not imgs:
        raise MapError("branches miss the ambient set entirely")
    if _normalize_intervals(imgs) != space.intervals:
        raise MapError("branch images do not tile the ambient set")
    if total != sum(r - l for l, r in space.intervals):
        raise MapError("branch images overlap (length mismatch)")
    # well-definedness where sources meet inside K
    for b1, b2 in zip(branches, branches[1:]):
        if b1.hi == b2.lo and space.contains(b1.hi):
            if b1.value(b1.hi) != b2.value(b1.hi):
                raise MapError(f"branches disagree at {b1.hi}")


def _check_reflection_symmetric(space: CompactSet) -> None:
    ifs = space.ifs
    lo, hi = ifs.hull
    c2 = lo + hi  # twice the center
    n = len(ifs.ratios)
    for i in range(n):
        j = n - 1 - i
        # sigma phi_i sigma = phi_j with sigma(x) = c2 - x
        if ifs.ratios[i] != ifs.ratios[j]:
            raise MapError("orientation-reversing branch on an asymmetric IFS")
        if c2 - (ifs.ratios[i] * c2 + ifs.offsets[i]) != ifs.offsets[j]:
            raise MapError("orientation-reversing branch on an asymmetric IFS")


def _validate_ifs(space: CompactSet, branches: Sequence[Branch]) -> None:
    """Bijectivity of the limit set: every branch source decomposes into
    cylinders, each mapped affinely onto a single cylinder, and the image
    cylinders tile the limit set (complete antichain)."""
    if any(b.slope < 0 for b in branches):
        _check_reflection_symmetric(space)

    def antichain(cyls, what):
        cyls = sorted(cyls)
        lo, hi = space.hull
        if cyls[0][0] != lo or cyls[-1][1] != hi:
            raise MapError(f"{what} cylinders do not reach the extremes")
        for (l1, r1), (l2, r2) in zip(cyls, cyls[1:]):
            if not (r1 < l2 and (r1, l2) in space.ifs.gaps_at(r1)):
                raise MapError(f"{what} cylinders do not tile the limit set")

    img_cyls = []
    src_cyls = []
    for b in branches:
        words = space.decompose_into_cylinders(b.lo, b.hi)
        if not words:
            raise MapError(f"branch source [{b.lo}, {b.hi}] not cylinder-aligned")
        for w in words:
            clo, chi = space.cylinder(w)
            src_cyls.append((clo, chi))
            ia, ib = sorted((b.value(clo), b.value(chi)))
            dec = space.decompose_into_cylinders(ia, ib)
            if dec is None or len(dec) != 1:
                raise MapError(f"image of cylinder {w or 'hull'} is not a cylinder")
            if space.cylinder(dec[0]) != (ia, ib):
                raise MapError(f"image of cylinder {w or 'hull'} misses cylinder endpoints")
            img_cyls.append((ia, ib))
    antichain(src_cyls, "source")
    antichain(img_cyls, "image")


def pa_homeo(space: CompactSet, branches: Iterable[Branch],
             label: tuple[str, ...] = (), validate: bool = True) -> PAHomeo:
    bs = sorted(branches, key=lambda b: (b.lo, b.hi))
    if not bs:
        raise MapError("a map needs at least one branch")
    for b in bs:
        if b.slope == 0:
            raise MapError("zero slope")
        if b.lo >= b.hi:
            raise MapError("degenerate branch source")
    for b1, b2 in zip(bs, bs[1:]):
        if b2.lo < b1.hi:
            raise MapError("branch sources overlap")
    if validate:
        if space.ifs is not None:
            # limit-set coverage is part of the source antichain check;
            # sources may legitimately split across gaps of deeper cylinders
            _validate_ifs(space, bs)
        else:
            merged = _normalize_intervals([(b.lo, b.hi) for b in bs])
            for kl, kr in space.intervals:
                if not any(l <= kl and kr <= r for l, r in merged):
                    raise MapError(f"sources do not cover [{kl}, {kr}]")
            _validate_plain(space, bs)
    return PAHomeo(space, tuple(bs), tuple(label))


def identity_map(space: CompactSet) -> PAHomeo:
    lo, hi = space.hull
    return PAHomeo(space, (Branch(lo, hi, Fraction(1), Fraction(0)),), ())


# ---------------------------------------------------------------------------
# prefix tables


@dataclass(frozen=True)
class PrefixTable:
    """Rules (source address, target address, sign) over an IFS alphabet."""

    rules: tuple[tuple[str, str, int], ...]


def _check_antichain(words: Sequence[str], alphabet_size: int, what: str) -> None:
    for w in words:
        for v in words:
            if w != v and v.startswith(w):
                raise MapError(f"{what} address {w!r} is a prefix of {v!r}")
    if len(set(words)) != len(words):
        raise MapError(f"duplicate {what} address")
    mass = sum(Fraction(1, alphabet_size ** len(w)) for w in words)
    if mass != 1:
        raise MapError(f"{what} addresses cover mass {mass}, not 1")


def from_prefix_table(table: PrefixTable, K: CompactSet,
                      label: tuple[str, ...] = ()) -> PAHomeo:
    if K.ifs is None:
        raise MapError("prefix tables need an IFS-structured set")
    maxlen = max((max(len(s), len(d)) for s, d, _ in table.rules), default=0)
    if K.depth < maxlen:
        raise MapError(f"depth {K.depth} too small for addresses of length {maxlen}")
    m = len(K.ifs.symbols)
    _check_antichain([s for s, _, _ in table.rules], m, "source")
    _check_antichain([d for _, d, _ in table.rules], m, "target")
    branches = []
    for src, dst, sign in table.rules:
        if sign not in (1, -1):
            raise MapError(f"bad orientation {sign!r}")
        slo, shi = K.cylinder(src)
        dlo, dhi = K.cylinder(dst)
        slope = Fraction(dhi - dlo, shi - slo) * sign
        offset = (dlo - slope * slo) if sign == 1 else (dhi - slope * slo)
        branches.append(Branch(slo, shi, slope, offset))
    return pa_homeo(K, branches, label=label)


# ---------------------------------------------------------------------------
# group operations


def compose(f: PAHomeo, g: PAHomeo) -> PAHomeo:
    """The map f∘g (g applied first).

    Composition of validated maps is again a valid map, so no re-validation
    is performed; branch refinement stays exact.
    """
    if f.space != g.space:
        raise MapError("composition across different spaces")
    out = []
    f_his = f._src_his
    nf = len(f.branches)
    for bg in g.branches:
        ia, ib = bg.image_interval()
        j = bisect.bisect_right(f_his, ia)
        if j > 0 and f.branches[j - 1].hi >= ia:
            j -= 1
        while j < nf:
            bf = f.branches[j]
            if bf.lo >= ib:
                break
            olo, ohi = max(ia, bf.lo), min(ib, bf.hi)
            if olo < ohi:
                # an image inside bf's source leaves bg's source uncut
                pa, pb = ((bg.lo, bg.hi) if (olo, ohi) == (ia, ib) else
                          sorted((bg.preimage(olo), bg.preimage(ohi))))
                out.append(Branch(pa, pb, bf.slope * bg.slope,
                                  bf.slope * bg.offset + bf.offset))
            j += 1
    out.sort(key=lambda b: b.lo)
    return PAHomeo(f.space, tuple(out), f.label + g.label)


def invert(f: PAHomeo) -> PAHomeo:
    branches = []
    for b in f.branches:
        ia, ib = b.image_interval()
        branches.append(Branch(ia, ib, 1 / b.slope, -b.offset / b.slope))
    branches.sort(key=lambda b: b.lo)
    label = tuple(inverse_name(n) for n in reversed(f.label))
    return PAHomeo(f.space, tuple(branches), label)


def power(f: PAHomeo, k: int) -> PAHomeo:
    if k < 0:
        return power(invert(f), -k)
    out = identity_map(f.space)
    for _ in range(k):
        out = compose(f, out)
    return out


def equals(f: PAHomeo, g: PAHomeo) -> bool:
    """Equality as maps restricted to the ambient set."""
    if f.space != g.space:
        return False
    cuts = sorted({b.lo for b in f.branches} | {b.hi for b in f.branches} |
                  {b.lo for b in g.branches} | {b.hi for b in g.branches})
    K = f.space
    for l, r in zip(cuts, cuts[1:]):
        for kl, kr in K.meeting(l, r):
            olo, ohi = max(kl, l), min(kr, r)
            if olo < ohi:
                bf, bg = f.branch_at(olo), g.branch_at(olo)
                # both branches cover the whole cut segment
                if (bf.slope, bf.offset) != (bg.slope, bg.offset):
                    return False
            elif apply(f, olo) != apply(g, olo):
                return False
    return True


def is_identity(f: PAHomeo) -> bool:
    return equals(f, identity_map(f.space))


# ---------------------------------------------------------------------------
# break pairs and regularity


@dataclass(frozen=True, order=True)
class BreakPair:
    a: Fraction
    b: Fraction

    @property
    def span(self) -> Fraction:
        return self.b - self.a


def break_pairs(f: PAHomeo) -> list[BreakPair]:
    """The gaps of the (limit) set whose image pair bounds no gap.

    Gaps strictly inside a single branch source always map to gap pairs
    (the branch is a monotone bijection of the limit material of its source
    onto that of a gap-bounded image), so only gaps meeting a branch
    boundary need testing; that makes the search finite and exact.
    """
    K = f.space
    hull_lo, hull_hi = K.hull
    bounds = set()
    for b in f.branches:
        bounds.add(b.lo)
        bounds.add(b.hi)
    bounds -= {hull_lo, hull_hi}
    candidates = set()
    for t in bounds:
        candidates.update(K.gaps_at(t))
    out = []
    for a, b in sorted(candidates):
        u, v = sorted((apply(f, a), apply(f, b)))
        if (u, v) not in K.gaps_at(u):
            out.append(BreakPair(a, b))
    return out


def break_points(f: PAHomeo) -> list[Fraction]:
    pts = set()
    for p in break_pairs(f):
        pts.add(p.a)
        pts.add(p.b)
    return sorted(pts)


def is_regular_on(f: PAHomeo, a, b) -> bool:
    a, b = rat(a), rat(b)
    if a > b:
        raise MapError("reversed segment")
    return not any(a <= p.a and p.b <= b for p in break_pairs(f))


INFINITE_RADIUS = None


def regularity_radius(gens: Sequence[PAHomeo]) -> Optional[Fraction]:
    """r0: every interval shorter than r0 contains no generator break pair.

    Returns None (the infinity sentinel) when no generator has any break
    pair at all.
    """
    if not gens:
        raise MapError("empty generator list")
    spans = [p.span for g in gens for p in break_pairs(g)]
    return min(spans) if spans else INFINITE_RADIUS


# ---------------------------------------------------------------------------
# images, slopes, distortion


def image(f: PAHomeo, S: Region) -> Region:
    """Exact image region of S∩K under f."""
    if S.space != f.space:
        raise MapError("region lives on a different space")
    pieces = []
    for p in S.pieces:
        for b in f.branches[bisect.bisect_left(f._src_his, p.lo):
                            bisect.bisect_right(f._src_los, p.hi)]:
            # clip p to b's closed source; the bisection makes them meet
            holds_lo = p.lo < b.lo or p.lo == b.lo and p.lo_closed
            holds_hi = b.hi < p.hi or b.hi == p.hi and p.hi_closed
            if holds_lo and holds_hi:
                pieces.append(Piece(*b.image_interval(), True, True))
                continue
            lo, lo_closed = (b.lo, True) if holds_lo else (p.lo, p.lo_closed)
            hi, hi_closed = (b.hi, True) if holds_hi else (p.hi, p.hi_closed)
            if lo == hi and not (lo_closed and hi_closed):
                continue
            va, vb = b.value(lo), b.value(hi)
            if b.slope > 0:
                pieces.append(Piece(va, vb, lo_closed, hi_closed))
            else:
                pieces.append(Piece(vb, va, hi_closed, lo_closed))
    return Region.from_pieces(f.space, pieces)


def slope_range(f: PAHomeo, S: Region) -> tuple[Fraction, Fraction]:
    """(min, max) of |slope| over branches meeting S inside K."""
    mags = [abs(b.slope) for b in f.branches
            if not Region(f.space, (Piece(b.lo, b.hi, True, True),)).intersect(S).is_empty()]
    if not mags:
        raise MapError("region meets no branch")
    return min(mags), max(mags)


def distortion(f: PAHomeo, B: Region) -> Fraction:
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
            if K.contains(v) and (B.contains(v) or
                                  any(q.lo <= v <= q.hi for q in B.pieces)):
                cand.add(v)
    for l, r in K.intervals:
        for v in (l, r):
            if B.contains(v):
                cand.add(v)
    for b in f.branches:
        for v in (b.lo, b.hi):
            if B.contains(v):
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
